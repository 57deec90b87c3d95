//! Reading back what a `WireSink` emitted, shared
//! by the test suites that check a reply on the wire.

use tdb::prelude::*;
use tdb_engine::Response;
use tdb_net::wire::{Frame, FrameReader, ReadOutcome};

/// Decode the frames a `WireSink` emitted, through the reader a client
/// uses.
pub fn decode_frames(wire: &[bytes::BytesMut]) -> Vec<Frame> {
    let bytes: Vec<u8> = wire.iter().flat_map(|f| f.iter().copied()).collect();
    let mut reader = FrameReader::new();
    let mut src = &bytes[..];
    let mut frames = Vec::new();
    while let ReadOutcome::Frame(frame) = reader.read(&mut src).unwrap() {
        frames.push(frame);
    }
    frames
}

/// The rows a reply carries, whichever shape it took: one `Reply`, or
/// header + chunks + trailer. Checks the stream's own invariants on the
/// way (consecutive `seq`, `last` on the final chunk only, no empty
/// chunk, trailer last) and returns the rows per chunk.
pub fn reply_chunks(frames: &[Frame]) -> Vec<Vec<Row>> {
    match frames {
        [Frame::Reply { response, .. }] => match &**response {
            Response::Query(q) => vec![q.rows.rows.clone()],
            other => panic!("expected a query reply, got {other:?}"),
        },
        [Frame::Reply { response, .. }, chunks @ .., Frame::ReplyEnd { trailer, .. }] => {
            assert!(
                matches!(&**response, Response::QueryStream(q) if q.rows.rows.is_empty()),
                "a stream starts with its header"
            );
            assert!(trailer.error.is_none());
            assert!(!chunks.is_empty(), "a stream has at least one chunk");
            chunks
                .iter()
                .enumerate()
                .map(|(i, frame)| match frame {
                    Frame::ReplyChunk {
                        seq, last, rows, ..
                    } => {
                        assert_eq!(*seq as usize, i, "chunks are numbered in order");
                        assert_eq!(
                            *last,
                            i + 1 == chunks.len(),
                            "`last` marks the final chunk only"
                        );
                        assert!(!rows.is_empty(), "no chunk is empty");
                        rows.clone()
                    }
                    other => panic!("expected a chunk, got {other:?}"),
                })
                .collect()
        }
        other => panic!("not a reply: {other:?}"),
    }
}
