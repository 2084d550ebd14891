//! Property tests for the td-serve wire layers (framing + message
//! grammar): round-trips over adversarial payload sizes — empty frames,
//! frames over 1 MiB — and rejection of malformed wire bytes
//! (truncations at every depth, oversized declared lengths). Also the
//! request loop's answer to a verb it does not serve.

use td_serve::framing::{read_frame, read_frame_limited, write_frame, FrameError};
use td_serve::protocol::{Message, ProtoError};
use td_serve::{handle_connection, ConnectionOutcome, Service, ServiceConfig, TenantConfig};
use td_support::proptest::{check, Config, Gen};

/// Deterministic pseudo-random bytes: cheap enough for multi-MiB cases.
fn fill_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8 ^ (i as u8)
        })
        .collect()
}

/// A payload size biased towards the interesting extremes: empty, tiny,
/// mid-size, and strictly larger than 1 MiB.
fn arbitrary_len(g: &mut Gen) -> usize {
    match g.usize(0, 4) {
        0 => 0,
        1 => g.usize(1, 16),
        2 => g.usize(16, 4096),
        _ => (1 << 20) + g.usize(1, 4096), // > 1 MiB
    }
}

#[test]
fn prop_frames_round_trip_at_every_size() {
    check(
        "frames_round_trip",
        Config {
            cases: 40,
            ..Config::default()
        },
        |g| {
            let frames: Vec<Vec<u8>> = (0..g.usize(1, 4))
                .map(|_| fill_bytes(arbitrary_len(g), g.u64(0, u64::MAX)))
                .collect();
            let mut wire = Vec::new();
            for frame in &frames {
                write_frame(&mut wire, frame).map_err(|e| e.to_string())?;
            }
            let mut reader = wire.as_slice();
            for (i, frame) in frames.iter().enumerate() {
                let got = read_frame(&mut reader)
                    .map_err(|e| format!("frame {i}: {e}"))?
                    .ok_or_else(|| format!("frame {i}: premature clean EOF"))?;
                if &got != frame {
                    return Err(format!(
                        "frame {i}: {} byte(s) in, {} out",
                        frame.len(),
                        got.len()
                    ));
                }
            }
            match read_frame(&mut reader) {
                Ok(None) => Ok(()),
                other => Err(format!("expected clean EOF after frames, got {other:?}")),
            }
        },
    );
}

#[test]
fn prop_truncated_wire_is_rejected_never_misread() {
    check(
        "truncation_rejected",
        Config {
            cases: 60,
            ..Config::default()
        },
        |g| {
            let payload = fill_bytes(g.usize(0, 2048), g.u64(0, u64::MAX));
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).map_err(|e| e.to_string())?;
            let cut = g.usize(0, wire.len() + 1);
            let mut reader = &wire[..cut];
            match read_frame(&mut reader) {
                // No bytes at all: a clean end-of-stream, by design.
                Ok(None) if cut == 0 => Ok(()),
                // Everything arrived: the payload must be intact.
                Ok(Some(got)) if cut == wire.len() && got == payload => Ok(()),
                // Any proper prefix must be called out as truncated, with
                // honest byte accounting: a cut inside the 4-byte length
                // prefix wants the prefix, a cut inside the payload wants
                // the whole frame.
                Err(FrameError::Truncated { got, want }) if cut > 0 && cut < wire.len() => {
                    let expected_want = if cut < 4 { 4 } else { wire.len() };
                    if got == cut && want == expected_want {
                        Ok(())
                    } else {
                        Err(format!(
                            "cut at {cut}/{}: reported got={got} want={want}",
                            wire.len()
                        ))
                    }
                }
                other => Err(format!("cut at {cut}/{}: {other:?}", wire.len())),
            }
        },
    );
}

#[test]
fn prop_oversized_declarations_are_rejected_before_allocation() {
    check(
        "oversized_rejected",
        Config {
            cases: 40,
            ..Config::default()
        },
        |g| {
            let limit = g.usize(0, 4096);
            let declared = limit + g.usize(1, 1 << 20);
            let mut wire = (declared as u32).to_be_bytes().to_vec();
            // Supply only a handful of payload bytes: if the reader tried
            // to honor the declaration it would hit EOF, so an `Oversized`
            // error proves the length was checked *first*.
            wire.extend_from_slice(b"xx");
            let mut reader = wire.as_slice();
            match read_frame_limited(&mut reader, limit) {
                Err(FrameError::Oversized {
                    declared: d,
                    limit: l,
                }) if d == declared && l == limit => Ok(()),
                other => Err(format!("declared {declared} limit {limit}: {other:?}")),
            }
        },
    );
}

#[test]
fn prop_messages_round_trip_through_the_grammar() {
    check(
        "messages_round_trip",
        Config {
            cases: 80,
            ..Config::default()
        },
        |g| {
            let mut message = Message::new(format!("VERB{}", g.usize(0, 10)));
            for i in 0..g.usize(0, 5) {
                // Values may contain anything newline-free, '=' included.
                let value: String = (0..g.usize(0, 12))
                    .map(|_| char::from(g.u64(32, 127) as u8))
                    .collect();
                message = message.field(format!("k{i}"), value);
            }
            for i in 0..g.usize(0, 4) {
                message = message.blob(
                    format!("b{i}"),
                    fill_bytes(arbitrary_len(g), g.u64(0, u64::MAX)),
                );
            }
            let decoded = Message::decode(&message.encode()).map_err(|e| e.to_string())?;
            if decoded == message {
                Ok(())
            } else {
                Err("decoded message differs from the encoded one".to_owned())
            }
        },
    );
}

#[test]
fn giant_blobs_survive_the_full_stack() {
    // A single deterministic end-to-end case well past 1 MiB: message →
    // frame → bytes → frame → message.
    let module = fill_bytes((1 << 20) + 12345, 99);
    let message = Message::new("RESULT")
        .field("ok", "true")
        .blob("module", module.clone());
    let mut wire = Vec::new();
    write_frame(&mut wire, &message.encode()).unwrap();
    assert!(wire.len() > 1 << 20);
    let mut reader = wire.as_slice();
    let decoded = Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
    assert_eq!(decoded.get_blob("module"), Some(module.as_slice()));
    assert!(read_frame(&mut reader).unwrap().is_none());
}

#[test]
fn malformed_messages_inside_sound_frames_are_protocol_errors() {
    // The framing accepts these (they are just bytes); the message layer
    // must reject each with the right error class.
    let cases: Vec<(&[u8], fn(&ProtoError) -> bool)> = vec![
        (b"", |e| matches!(e, ProtoError::BadHeader(_))),
        (b"http/1.1 GET\n", |e| matches!(e, ProtoError::BadHeader(_))),
        (b"td-serve/1 SUBMIT\n=value\n", |e| {
            matches!(e, ProtoError::BadField(_))
        }),
        (b"td-serve/1 SUBMIT\n#blob 4\nab\n", |e| {
            matches!(e, ProtoError::BadBlob(_))
        }),
        (b"td-serve/1 SUBMIT\n#blob 18446744073709551615\nx\n", |e| {
            matches!(e, ProtoError::BadBlob(_))
        }),
    ];
    for (bytes, classifier) in cases {
        let error = Message::decode(bytes).expect_err("must not decode");
        assert!(
            classifier(&error),
            "wrong error class for {bytes:?}: {error}"
        );
    }
}

#[test]
fn a_metrics_frame_is_an_unknown_verb_and_the_connection_lives_on() {
    // `STATS` is the daemon's one counter surface; the retired `METRICS`
    // verb is refused in-band like any unknown verb, and the next request
    // on the same connection is answered.
    let service = Service::start(ServiceConfig::new(vec![TenantConfig::new("solo")])).unwrap();
    let mut wire = Vec::new();
    for verb in ["METRICS", "PING"] {
        write_frame(&mut wire, &Message::new(verb).encode()).unwrap();
    }
    let mut answers = Vec::new();
    let outcome = handle_connection(&service, &mut wire.as_slice(), &mut answers).unwrap();
    assert_eq!(outcome, ConnectionOutcome::Eof);
    let mut reader = answers.as_slice();
    let mut next = || Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
    let refused = next();
    assert_eq!(refused.verb, "ERR");
    assert_eq!(refused.get_field("reason"), Some("unknown verb 'METRICS'"));
    assert_eq!(next().verb, "PONG");
    assert!(read_frame(&mut reader).unwrap().is_none());
    service.drain();
}
