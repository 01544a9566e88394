//! The block codec under friendly and hostile input.
//!
//! `dengraph_json::lz`'s block format is what every binary checkpoint
//! and every snapshot frame is packed with, and its decoder reads bytes
//! that come off a disk.  Two contracts are gated here:
//!
//! * **round trips** — ChaCha8-seeded inputs of every shape the encoder
//!   treats differently (empty, shorter than a match, all-zero,
//!   incompressible, text, real checkpoint bodies) and hand-assembled
//!   streams that sit exactly on the format's 15- and 255-boundaries,
//!   on overlapping matches and on the largest distance;
//! * **hostile streams** — truncation at every byte, a trailing byte,
//!   every single-byte mutation, zero and out-of-range distances, absurd
//!   declared lengths: the decoder returns `Err` or a well-formed result,
//!   never panics, and never lets a length prefix size an allocation.
//!
//! Plus the property the bit-identical checkpoint suites rest on: the
//! encoder's output depends only on its input, not on what its reused
//! table saw before.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_json::lz::{decompress_block_into, BlockEncoder};
use dengraph_json::BinWriter;
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::StreamGenerator;

fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(BlockEncoder::new().compress_into(input, &mut out));
    out
}

fn decompress(stream: &[u8]) -> dengraph_json::Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_block_into(stream, &mut out).map(|()| out)
}

fn assert_round_trip(input: &[u8], label: &str) -> usize {
    let packed = compress(input);
    let back = decompress(&packed).unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert!(back == input, "{label}: round trip diverged");
    packed.len()
}

fn random_bytes(rng: &mut ChaCha8Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen::<u32>() as u8).collect()
}

/// The binary state of a detector that has seen a real stream: sorted
/// varint columns, sketches, an interner word list.
fn checkpoint_body(seed: u64, window: usize) -> Vec<u8> {
    let trace = StreamGenerator::new(tw_profile(seed, ProfileScale::Small)).generate();
    let mut session =
        DetectorBuilder::from_config(DetectorConfig::nominal().with_window_quanta(window))
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
    session.run(&trace.messages);
    let mut body = BinWriter::new();
    session.detector().to_bin(&mut body);
    body.into_bytes()
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

#[test]
fn seeded_inputs_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C_0001);
    assert_eq!(assert_round_trip(b"", "empty"), 2, "length 0 + one token");
    for n in 1..=12 {
        assert_round_trip(&random_bytes(&mut rng, n), &format!("{n} random bytes"));
        assert_round_trip(&vec![b'a'; n], &format!("{n} equal bytes"));
    }
    for n in [13, 64, 4_096, 70_000, 300_000] {
        let packed = assert_round_trip(&vec![0u8; n], &format!("{n} zeros"));
        assert!(packed <= n / 200 + 16, "{n} zeros packed to {packed}");
        let noise = random_bytes(&mut rng, n);
        let packed = assert_round_trip(&noise, &format!("{n} random bytes"));
        assert!(
            packed <= n + n / 255 + 16,
            "{n} random bytes grew to {packed}"
        );
    }
    let words = [
        "quake",
        "tsunami",
        "coast",
        "warning",
        "the",
        "a",
        "magnitude",
    ];
    for case in 0..8 {
        let mut text = String::new();
        while text.len() < 20_000 {
            text.push_str(words[rng.gen_range(0..words.len())]);
            text.push(' ');
        }
        let packed = assert_round_trip(text.as_bytes(), &format!("text case {case}"));
        assert!(packed < text.len() / 2, "text packed to {packed}");
    }
    // Mixed: compressible runs between incompressible ones, so the
    // encoder's stride lengthens and resets.
    for case in 0..8 {
        let mut mixed = Vec::new();
        for _ in 0..rng.gen_range(2..8usize) {
            let noise_len = rng.gen_range(0..6_000usize);
            mixed.extend_from_slice(&random_bytes(&mut rng, noise_len));
            let unit_len = rng.gen_range(1..40usize);
            let unit = random_bytes(&mut rng, unit_len);
            for _ in 0..rng.gen_range(1..300usize) {
                mixed.extend_from_slice(&unit);
            }
        }
        assert_round_trip(&mixed, &format!("mixed case {case}"));
    }
}

#[test]
fn real_checkpoint_bodies_round_trip_and_shrink() {
    for (seed, window) in [(71, 8), (64, 12), (72, 4)] {
        let body = checkpoint_body(seed, window);
        let packed = assert_round_trip(&body, &format!("checkpoint body, seed {seed}"));
        assert!(
            packed < body.len(),
            "seed {seed}: {} bytes packed to {packed}",
            body.len()
        );
    }
}

/// One hand-assembled sequence: literals, then an optional
/// `(distance, length)` match.
struct Sequence<'a>(&'a [u8], Option<(usize, usize)>);

fn push_length(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Assembles a block stream from `sequences` and, independently, the
/// bytes it must decode to.
fn assemble(sequences: &[Sequence<'_>]) -> (Vec<u8>, Vec<u8>) {
    let mut expanded: Vec<u8> = Vec::new();
    let mut tokens = Vec::new();
    for Sequence(literals, matched) in sequences {
        let code = matched.map_or(0, |(_, length)| length - 4);
        tokens.push(((literals.len().min(15) as u8) << 4) | code.min(15) as u8);
        if literals.len() >= 15 {
            push_length(&mut tokens, literals.len() - 15);
        }
        tokens.extend_from_slice(literals);
        expanded.extend_from_slice(literals);
        if let Some((distance, length)) = *matched {
            tokens.extend_from_slice(&(distance as u16).to_le_bytes());
            if code >= 15 {
                push_length(&mut tokens, code - 15);
            }
            for _ in 0..length {
                expanded.push(expanded[expanded.len() - distance]);
            }
        }
    }
    let mut w = BinWriter::new();
    w.usize(expanded.len());
    w.raw(&tokens);
    (w.into_bytes(), expanded)
}

#[test]
fn streams_on_the_format_boundaries_decode_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C_0002);
    // Literal and match lengths around the nibble limit (15) and around
    // each extension byte's limit (15 + 255, 15 + 2·255).
    let edges = [0, 1, 14, 15, 16, 269, 270, 271, 524, 525, 526];
    for &literals in &edges {
        for &code in &edges {
            let head = random_bytes(&mut rng, literals.max(1));
            let tail = random_bytes(&mut rng, 5);
            let distance = rng.gen_range(1..=head.len());
            let (stream, expanded) = assemble(&[
                Sequence(&head, Some((distance, code + 4))),
                Sequence(&tail, None),
            ]);
            let label = format!("{} literals, match length {}", head.len(), code + 4);
            let back = decompress(&stream).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(back == expanded, "{label}: decoded bytes differ");
            // The encoder must cope with the same shapes.
            assert_round_trip(&expanded, &label);
        }
    }
    // Overlapping matches: distance 1–3 against runs far longer.
    for distance in 1..=3 {
        let seed_bytes = random_bytes(&mut rng, 3);
        for length in [4, 5, 7, 64, 1_000] {
            let (stream, expanded) = assemble(&[
                Sequence(&seed_bytes, Some((distance, length))),
                Sequence(b"", None),
            ]);
            let back = decompress(&stream).expect("overlapping match decodes");
            assert!(back == expanded, "distance {distance}, length {length}");
            assert_round_trip(&expanded, "overlapping run");
        }
    }
    // The largest distance the format can name.
    let far = random_bytes(&mut rng, 65_535);
    let (stream, expanded) =
        assemble(&[Sequence(&far, Some((65_535, 40))), Sequence(b"tail!", None)]);
    assert!(decompress(&stream).expect("distance 65 535 decodes") == expanded);
    assert_eq!(&expanded[65_535..65_575], &far[..40]);
    assert_round_trip(&expanded, "match at distance 65 535");
    // The encoder names it too — and not one byte more.  Zeros between
    // the two copies pack as one long match, so the table still holds
    // the first copy when the second arrives.
    let unit = random_bytes(&mut rng, 40);
    let repeat_at = |distance: usize| {
        let mut input = unit.clone();
        input.resize(distance, 0);
        input.extend_from_slice(&unit);
        input.extend_from_slice(b"tail!");
        input
    };
    let reachable = assert_round_trip(&repeat_at(65_535), "repeat at distance 65 535");
    let too_far = assert_round_trip(&repeat_at(65_536), "repeat at distance 65 536");
    assert!(
        reachable + 30 < too_far,
        "a repeat at 65 535 must pack as a match ({reachable} bytes), at 65 536 as \
         literals ({too_far} bytes)"
    );
}

// ---------------------------------------------------------------------------
// Hostile streams
// ---------------------------------------------------------------------------

#[test]
fn truncated_extended_and_mutated_streams_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C_0003);
    let mut inputs: Vec<Vec<u8>> = vec![
        b"hello hello hello hello hello, hello hello".to_vec(),
        vec![7u8; 600],
        random_bytes(&mut rng, 40),
    ];
    let mut body = checkpoint_body(72, 4);
    body.truncate(700);
    inputs.push(body);
    for (case, input) in inputs.iter().enumerate() {
        let stream = compress(input);
        for cut in 0..stream.len() {
            assert!(
                decompress(&stream[..cut]).is_err(),
                "case {case}: truncation at {cut} was accepted"
            );
        }
        let mut longer = stream.clone();
        longer.push(0);
        assert!(
            decompress(&longer).is_err(),
            "case {case}: trailing byte accepted"
        );
        // Every single-byte mutation: 255 other values at every offset.
        let declared = input.len();
        for at in 0..stream.len() {
            let original = stream[at];
            let mut bad = stream.clone();
            for value in 0..=255u8 {
                if value == original {
                    continue;
                }
                bad[at] = value;
                if let Ok(out) = decompress(&bad) {
                    // The length prefix itself may have been the byte
                    // that changed; whatever it now says is what a
                    // stream that still decodes must deliver.
                    let mut header = dengraph_json::BinReader::new(&bad);
                    let says = header.usize().expect("a decoded stream has a length");
                    assert_eq!(out.len(), says, "case {case}: byte {at} := {value}");
                    if at >= header.pos() {
                        assert_eq!(says, declared);
                    }
                }
            }
        }
    }
}

#[test]
fn invalid_distances_and_lengths_are_errors() {
    // dist == 0.
    assert!(decompress(&[8, 0x10, b'a', 0, 0, 0x00]).is_err());
    // A distance one past the output so far.
    assert!(decompress(&[8, 0x10, b'a', 2, 0, 0x00]).is_err());
    let (mut stream, _) = assemble(&[Sequence(b"abcdef", Some((6, 10))), Sequence(b"", None)]);
    assert!(decompress(&stream).is_ok());
    let distance_at = 1 + 1 + 6;
    stream[distance_at] = 7;
    assert!(decompress(&stream).is_err(), "distance 7 over 6 bytes");
    // A match or literal run that would pass the declared length.
    let (mut stream, _) = assemble(&[Sequence(b"abcdef", Some((6, 10))), Sequence(b"", None)]);
    stream[0] = 15;
    assert!(decompress(&stream).is_err(), "match overruns");
    let (mut stream, _) = assemble(&[Sequence(b"abcdef", None)]);
    stream[0] = 5;
    assert!(decompress(&stream).is_err(), "literals overrun");
    // A stream that stops short of its declared length.
    let (mut stream, _) = assemble(&[Sequence(b"abcdef", None)]);
    stream[0] = 7;
    assert!(decompress(&stream).is_err(), "stream ends early");
    // An unterminated extension run.
    assert!(decompress(&[200, 0xF0, 255, 255]).is_err());
}

#[test]
fn a_hostile_length_prefix_cannot_size_an_allocation() {
    for declared in [u64::MAX, 1 << 40] {
        let mut w = BinWriter::new();
        w.u64(declared);
        let mut stream = w.into_bytes();
        // Pad to ten bytes: a literal token and its bytes.
        if stream.len() < 10 {
            let literals = 10 - stream.len() - 1;
            stream.push((literals as u8) << 4);
            stream.resize(10, b'x');
        }
        assert_eq!(stream.len(), 10);
        let mut out = Vec::new();
        assert!(decompress_block_into(&stream, &mut out).is_err());
        assert!(
            out.capacity() <= 8 * stream.len(),
            "declared {declared}: {} bytes reserved for a 10-byte stream",
            out.capacity()
        );
    }
    // Output grows only as tokens pay for it: one extension byte buys at
    // most 255 bytes, so even a stream of nothing but extensions — here a
    // 16 339-byte run of one literal, then nothing — stays within 255×
    // its own size.
    let mut stream = vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]; // 2^42
    stream.extend_from_slice(&[0x1F, b'z', 1, 0]);
    stream.extend_from_slice(&[255; 64]);
    stream.push(0);
    let mut out = Vec::new();
    assert!(decompress_block_into(&stream, &mut out).is_err());
    assert_eq!(out.len(), 1 + 15 + 64 * 255 + 4);
    assert!(out.capacity() <= 255 * stream.len());
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn a_reused_encoder_produces_the_bytes_a_fresh_one_does() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C_0004);
    let body = checkpoint_body(71, 8);
    let fresh = compress(&body);
    let mut encoder = BlockEncoder::new();
    let mut out = Vec::new();
    for unrelated in [
        random_bytes(&mut rng, 90_000),
        vec![0u8; 70_000],
        Vec::new(),
    ] {
        out.clear();
        assert!(encoder.compress_into(&unrelated, &mut out));
        out.clear();
        assert!(encoder.compress_into(&body, &mut out));
        assert!(out == fresh, "a used table changed the output");
    }
    // Twice in a row through the same scratch, appending behind a prefix.
    let mut twice = b"frame header".to_vec();
    assert!(encoder.compress_into(&body, &mut twice));
    assert!(twice[12..] == fresh[..]);
}
