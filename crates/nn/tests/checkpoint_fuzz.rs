//! Hostile checkpoint text: `Checkpoint::from_json` followed by `load` must
//! return `Ok` or `Err` and never panic, whatever the bytes. The JSON
//! parser is the in-tree `serde_json` shim, so it is covered here too.
//!
//! Inputs: arbitrary byte strings biased towards JSON syntax, truncations
//! of a valid `tiny` checkpoint, and single-byte mutations of it.

use dcd_nn::{Checkpoint, SppNet, SppNetConfig};
use dcd_tensor::SeededRng;

/// Parses and loads `bytes` (lossily decoded, as a reader of a corrupt file
/// would), reporting whether a model came out.
fn parse_and_load(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    match Checkpoint::from_json(&text) {
        Ok(ckpt) => ckpt.load().is_ok(),
        Err(_) => false,
    }
}

fn valid_checkpoint() -> Vec<u8> {
    let mut model = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(8));
    Checkpoint::save(&mut model).to_json().into_bytes()
}

/// A uniformly drawn index below `n`.
fn below(rng: &mut SeededRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Bytes that JSON treats specially, plus a few that it never accepts.
const ALPHABET: &[u8] = b"{}[]\",:-+.eE0123456789 truefalsnul\\/\x00\xff\xc3a";

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = SeededRng::new(1);
    for _ in 0..2000 {
        let len = below(&mut rng, 160);
        let bytes: Vec<u8> = (0..len)
            .map(|_| ALPHABET[below(&mut rng, ALPHABET.len())])
            .collect();
        parse_and_load(&bytes);
    }
    for text in [
        &b""[..],
        b"{}",
        b"[]",
        b"null",
        b"{\"config\":{},\"params\":[]}",
        b"{\"config\":null,\"params\":null}",
        b"1e999999",
        b"-99999999999999999999999999",
        b"\"\\ud800\"",
        b"[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]",
    ] {
        assert!(!parse_and_load(text));
    }
}

#[test]
fn truncations_never_panic() {
    let valid = valid_checkpoint();
    assert!(parse_and_load(&valid), "the untouched checkpoint loads");
    // Every cut in the header and the tail, and a spread of cuts between.
    let cuts = (0..256)
        .chain((256..valid.len().saturating_sub(256)).step_by(61))
        .chain(valid.len().saturating_sub(256)..valid.len());
    for len in cuts {
        assert!(!parse_and_load(&valid[..len]), "a {len}-byte prefix loaded");
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    let valid = valid_checkpoint();
    let mut rng = SeededRng::new(2);
    let mut loaded = 0;
    for i in 0..1500 {
        let mut bytes = valid.clone();
        // The header (config and first shapes) first, then anywhere.
        let pos = if i < 500 {
            below(&mut rng, 256.min(bytes.len()))
        } else {
            below(&mut rng, bytes.len())
        };
        bytes[pos] = ALPHABET[below(&mut rng, ALPHABET.len())];
        loaded += usize::from(parse_and_load(&bytes));
    }
    // Digit swaps inside weight values still load; structural damage
    // does not.
    assert!(
        loaded > 0 && loaded < 1500,
        "{loaded} of 1500 mutants loaded"
    );
}
