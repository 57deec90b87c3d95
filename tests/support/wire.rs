//! Reading back what a `WireSink` emitted, shared
//! by the test suites that check a reply on the wire.

use tdb::prelude::*;
use tdb_engine::Response;
use tdb_net::wire::{Frame, FrameReader, ReadOutcome, RowsAhead};

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

/// `frames` as a client reads them: each `ReplyRows` folded into the
/// frame that follows it by [`RowsAhead`]. Every row sent ahead must be
/// claimed by such a frame.
pub fn fold_fragments(frames: &[Frame]) -> Vec<Frame> {
    let mut ahead = RowsAhead::default();
    let folded: Vec<Frame> = frames
        .iter()
        .filter_map(|f| ahead.fold(f.clone()))
        .collect();
    assert_eq!(
        rows_in(&folded),
        rows_in(frames),
        "rows sent ahead that no frame of their query claimed"
    );
    folded
}

/// The rows `frames` carry: sent ahead, in chunks, in query replies.
fn rows_in(frames: &[Frame]) -> usize {
    frames
        .iter()
        .map(|frame| match frame {
            Frame::ReplyRows { rows, .. } | Frame::ReplyChunk { rows, .. } => rows.len(),
            Frame::Reply { response, .. } => match &**response {
                Response::Query(q) => q.rows.rows.len(),
                _ => 0,
            },
            _ => 0,
        })
        .sum()
}

/// The rows a reply carries, whichever shape it took: one `Reply`, or
/// header + chunks + trailer, either after rows sent ahead. Folds those
/// in (see [`fold_fragments`]), checks the stream's own invariants on the
/// way (consecutive `seq`, `last` on the final chunk only, no empty
/// chunk, trailer last) and returns the rows per chunk.
pub fn reply_chunks(frames: &[Frame]) -> Vec<Vec<Row>> {
    match &fold_fragments(frames)[..] {
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
