//! Wire-codec corruption gauntlet, in the style of
//! `persist_corruption.rs`: every malformation of a frame must map to a
//! typed [`WireError`] (or an "need more bytes" `Ok(None)`) — never a
//! panic, and never an allocation driven by unvalidated input.

use snod_serve::wire::{
    encode_frame, FrameDecoder, Msg, WireError, MAX_FRAME_BYTES, WIRE_HEADER_LEN,
};

fn sample() -> Msg {
    Msg::Reading {
        handle: 2,
        node: 1,
        seq: 77,
        value: vec![0.25, -3.5],
    }
}

fn decode_one(bytes: &[u8]) -> Result<Option<Msg>, WireError> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    dec.next_frame()
}

#[test]
fn truncations_wait_for_more_bytes() {
    let frame = encode_frame(&sample());
    // Every proper prefix is "incomplete", not an error: the stream may
    // simply not have delivered the rest yet.
    for cut in 0..frame.len() {
        match decode_one(&frame[..cut]) {
            Ok(None) => {}
            other => panic!("prefix of {cut} bytes gave {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected_before_a_full_header_arrives() {
    let mut frame = encode_frame(&sample());
    frame[0] = b'X';
    assert_eq!(decode_one(&frame), Err(WireError::BadMagic));
    // Even a 3-byte garbage prefix is enough to convict: the decoder
    // must not buffer 24 bytes of a stream that can never resync.
    assert_eq!(decode_one(b"GET"), Err(WireError::BadMagic));
}

#[test]
fn wrong_version_is_a_typed_error() {
    let mut frame = encode_frame(&sample());
    frame[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        decode_one(&frame),
        Err(WireError::UnsupportedVersion {
            found: 9,
            supported: 1
        })
    );
}

#[test]
fn hostile_length_fields_cost_no_allocation() {
    // A header declaring a 2^64-1 byte payload: rejected from the
    // header alone. (If the decoder tried to reserve the declared
    // length this test would abort the process, not fail.)
    let mut frame = encode_frame(&sample());
    frame[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(
        decode_one(&frame),
        Err(WireError::Oversized { len: u64::MAX })
    );

    let mut frame = encode_frame(&sample());
    let just_over = MAX_FRAME_BYTES + 1;
    frame[12..20].copy_from_slice(&just_over.to_le_bytes());
    assert_eq!(
        decode_one(&frame),
        Err(WireError::Oversized { len: just_over })
    );

    // The cap itself is still in-bounds — it waits for payload bytes.
    let mut frame = encode_frame(&sample());
    frame[12..20].copy_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
    assert_eq!(decode_one(&frame), Ok(None));
}

#[test]
fn payload_bitflips_fail_the_checksum() {
    let frame = encode_frame(&sample());
    for i in WIRE_HEADER_LEN..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0x01;
        match decode_one(&bad) {
            Err(WireError::BadChecksum { .. }) => {}
            other => panic!("payload flip at {i} gave {other:?}"),
        }
    }
}

#[test]
fn crc_matched_garbage_is_a_bad_payload() {
    // Corrupt the payload *and* fix the CRC: framing is now valid but
    // the payload is not a message.
    let mut frame = encode_frame(&Msg::Ping);
    frame[WIRE_HEADER_LEN] = 0xEE; // unknown tag
    let crc = snod_persist::crc32(&frame[WIRE_HEADER_LEN..]);
    frame[20..24].copy_from_slice(&crc.to_le_bytes());
    match decode_one(&frame) {
        Err(WireError::BadPayload(_)) => {}
        other => panic!("unknown tag gave {other:?}"),
    }

    // Trailing junk after a valid message is also a payload error:
    // frames must be exact.
    let inner = encode_frame(&Msg::Ping);
    let mut payload = inner[WIRE_HEADER_LEN..].to_vec();
    payload.push(0x00);
    let mut frame = Vec::new();
    frame.extend_from_slice(&inner[..8]);
    frame.extend_from_slice(&inner[8..12]);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&snod_persist::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    match decode_one(&frame) {
        Err(WireError::BadPayload(_)) => {}
        other => panic!("trailing junk gave {other:?}"),
    }
}

#[test]
fn every_single_byte_flip_is_handled_without_panic() {
    // The blanket sweep: flip each byte of a real frame in turn and
    // decode. Any outcome is acceptable except a panic — and a flip
    // must never round-trip to a *different* valid message silently
    // unless the CRC still matches (1-byte flips never preserve CRC-32,
    // so in practice: never).
    let msg = sample();
    let frame = encode_frame(&msg);
    for i in 0..frame.len() {
        for bit in 0..8 {
            let mut bad = frame.clone();
            bad[i] ^= 1 << bit;
            if let Ok(Some(m)) = decode_one(&bad) {
                assert_eq!(m, msg, "flip at byte {i} bit {bit} re-decoded");
            }
        }
    }
}

#[test]
fn decode_resumes_cleanly_after_interleaved_valid_frames() {
    // A valid frame, then a corrupted one: the first decodes, the
    // second errors, and (per the protocol) the connection would close
    // — the decoder does not resync past garbage.
    let good = encode_frame(&Msg::Ping);
    let mut bad = encode_frame(&sample());
    let n = bad.len();
    bad[n - 1] ^= 0xFF;
    let mut dec = FrameDecoder::new();
    dec.feed(&good);
    dec.feed(&bad);
    assert_eq!(dec.next_frame(), Ok(Some(Msg::Ping)));
    assert!(matches!(
        dec.next_frame(),
        Err(WireError::BadChecksum { .. })
    ));
}
