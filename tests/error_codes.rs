//! Stable error codes and lossless wire round-trips: `Error` → parts →
//! encoded response frame → decoded `Error` must preserve the code and
//! every structured payload, for arbitrary variant contents.

use proptest::prelude::*;

use lstore::{Error, ErrorParts};
use lstore_server::protocol::{decode_response, encode_response, Response};

/// Arbitrary text payload: repeated quoting-hostile content (escapes,
/// non-ASCII) of varying length, including empty.
fn any_text() -> impl Strategy<Value = String> {
    (0u64..4).prop_map(|n| "xyzzy \"quoted\" \\slash\u{00e9}".repeat(n as usize))
}

/// Generate an arbitrary wire-expressible engine error.
fn error_strategy() -> impl Strategy<Value = Error> {
    prop_oneof![
        2 => (0u64..u64::MAX).prop_map(Error::DuplicateKey),
        2 => (0u64..u64::MAX).prop_map(Error::KeyNotFound),
        2 => any_text().prop_map(Error::TableNotFound),
        2 => any_text().prop_map(Error::TableExists),
        2 => (0u64..u64::MAX).prop_map(|base_rid| Error::WriteConflict { base_rid }),
        2 => (0u64..u64::MAX).prop_map(|base_rid| Error::ValidationFailed { base_rid }),
        2 => (0usize..1 << 20, 0usize..1 << 20)
            .prop_map(|(column, columns)| Error::ColumnOutOfRange { column, columns }),
        1 => (0usize..1 << 20).prop_map(Error::TooManyColumns),
        1 => (0u64..1).prop_map(|_| Error::TxnNotActive),
        1 => (0u64..1).prop_map(|_| Error::TxnFinalized),
        1 => (0u64..1).prop_map(|_| Error::Overloaded),
        1 => (0u64..1).prop_map(|_| Error::RequestTimeout),
        2 => any_text().prop_map(Error::Protocol),
        // `Remote` only ever arises from codes the decoder does not know;
        // remap structured codes out of the way so the generator cannot
        // produce an unreachable `Remote { code: <structured> }` state.
        2 => (0u16..200u16, any_text()).prop_map(|(code, detail)| Error::Remote {
            code: if matches!(code, 1..=8 | 11..=15) {
                code + 200
            } else {
                code
            },
            detail,
        }),
    ]
}

/// Push an error across the real wire encoding: encode it inside a
/// `Results` response frame, decode the frame, return the error.
fn through_the_wire(err: Error) -> Error {
    let frame = encode_response(1, &Response::Results(vec![Err(err)]));
    match decode_response(&frame[4..]).expect("frame decodes") {
        (1, Response::Results(mut results)) => {
            results.pop().expect("one result").expect_err("an error")
        }
        other => panic!("unexpected response {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn error_code_round_trip_is_lossless(err in error_strategy()) {
        let parts = err.to_parts();
        prop_assert_eq!(parts.code, err.code());

        // parts → Error → parts is the identity (the wire can re-encode
        // a decoded error into identical bytes)...
        let decoded = Error::from_parts(parts.clone());
        prop_assert_eq!(decoded.to_parts(), parts.clone());
        prop_assert_eq!(decoded.code(), err.code());

        // ...and the real frame encoding preserves exactly the same parts.
        let wired = through_the_wire(Error::from_parts(parts.clone()));
        prop_assert_eq!(wired.to_parts(), parts);
    }
}

#[test]
fn known_codes_never_drift() {
    // The wire contract: these numbers are frozen. A new variant must take
    // a fresh code; changing any of these breaks deployed clients.
    let expect: &[(u16, Error)] = &[
        (1, Error::DuplicateKey(0)),
        (2, Error::KeyNotFound(0)),
        (3, Error::TableNotFound(String::new())),
        (4, Error::WriteConflict { base_rid: 0 }),
        (5, Error::ValidationFailed { base_rid: 0 }),
        (
            6,
            Error::ColumnOutOfRange {
                column: 0,
                columns: 0,
            },
        ),
        (7, Error::TooManyColumns(0)),
        (8, Error::TxnNotActive),
        (11, Error::Overloaded),
        (12, Error::RequestTimeout),
        (13, Error::Protocol(String::new())),
        (14, Error::TxnFinalized),
        (15, Error::TableExists(String::new())),
    ];
    for (code, err) in expect {
        assert_eq!(err.code(), *code, "{err:?}");
    }
    // Unknown codes survive decode/re-encode untouched.
    let parts = ErrorParts {
        code: 999,
        a: 0,
        b: 0,
        detail: "from the future".into(),
    };
    assert_eq!(Error::from_parts(parts.clone()).to_parts(), parts);
}
