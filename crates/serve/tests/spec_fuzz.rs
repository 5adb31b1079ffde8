//! `JobSpec::from_str` on untrusted text: every submitted body line goes
//! through it, and so does every pending payload a resume replays. It
//! must never panic, and whatever it accepts must be in range and print
//! back to itself.

use proptest::prelude::*;
use rvv_serve::{JobSpec, MAX_N};

/// The spec grammar's own tokens, so that soups of them reach past the
/// workload name into the field parsers.
const TOKENS: [&str; 28] = [
    "p_add",
    "plus_scan",
    "seg_scan",
    "radix_sort",
    "n",
    "vlen",
    "lmul",
    "seed",
    "n=",
    "vlen=",
    "lmul=",
    "seed=",
    "=",
    "+",
    "-",
    "0x",
    "m1",
    "m2",
    "m4",
    "m8",
    "mf2",
    " ",
    "\t",
    "\n",
    "0",
    "1000000",
    "18446744073709551616",
    "256",
];

fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        prop::collection::vec(b'0'..=b'9', 1..=8).prop_map(|d| String::from_utf8(d).unwrap()),
        prop::collection::vec(b'0'..=b'9', 1..=22).prop_map(|d| String::from_utf8(d).unwrap()),
    ]
}

/// A workload name or a token, then up to five fields, each a key-like
/// token and a value-like token after a space or a tab.
fn soup() -> impl Strategy<Value = String> {
    let field = (0..2usize, 4..16usize, token());
    (
        prop_oneof![(0..4usize).prop_map(|i| TOKENS[i].to_string()), token()],
        prop::collection::vec(field, 0..=5),
    )
        .prop_map(|(head, fields)| {
            let mut text = head;
            for (sep, key, value) in fields {
                text.push_str([" ", "\t"][sep]);
                text.push_str(TOKENS[key]);
                text.push_str(&value);
            }
            text
        })
}

fn check(text: &str) {
    if let Ok(spec) = text.parse::<JobSpec>() {
        assert!((1..=MAX_N).contains(&spec.n), "`{text}` gave n={}", spec.n);
        let printed = spec.to_string();
        assert_eq!(
            printed.parse::<JobSpec>(),
            Ok(spec),
            "`{text}` printed as `{printed}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_text_never_panics(chars in prop::collection::vec(any::<char>(), 0..=64)) {
        check(&chars.into_iter().collect::<String>());
    }

    #[test]
    fn token_soups_parse_in_range_and_print_back(text in soup()) {
        check(&text);
    }
}

#[test]
fn the_soups_reach_accepted_specs() {
    // The grammar-shaped inputs are not all refused at the first token.
    for text in [
        "plus_scan n=1000000",
        "radix_sort\tseed=0 lmul=m8",
        "p_add vlen=256 n=1",
    ] {
        check(text);
        assert!(text.parse::<JobSpec>().is_ok(), "{text}");
    }
}
