//! JSON encoding with structure protection (§5.4).
//!
//! "Much like in SQL injection, an adversary may be able to craft an input
//! string that changes the structure of the JSON's JavaScript data
//! structure, or worse yet, include client-side code as part of the data
//! structure." The encoder escapes string content (so taint cannot become
//! structure), and [`check_json_structure`] is the strategy-2 analogue: it
//! verifies no untrusted byte lands in JSON structure.

use std::collections::BTreeMap;

use resin_core::{PolicyViolation, Result, TaintedStrBuilder, TaintedString, UntrustedData};

/// Encodes a string map as a JSON object, preserving value taint.
///
/// Keys are assumed server-controlled; values are escaped byte-for-byte so
/// untrusted content stays inside string literals.
pub fn encode_object(fields: &BTreeMap<String, TaintedString>) -> TaintedString {
    let mut out = TaintedStrBuilder::with_capacity(64);
    out.push_char('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_char(',');
        }
        out.push_char('"');
        out.push_str(&escape_plain(k));
        out.push_str("\":\"");
        out.push_tainted(&escape_tainted(v));
        out.push_char('"');
    }
    out.push_char('}');
    out.build()
}

/// Escapes JSON string content, preserving taint. One pass: untouched
/// stretches carry their spans, escape sequences are server text.
///
/// Every control byte below 0x20 is escaped — RFC 8259 forbids them raw
/// inside string literals. An earlier revision passed the exotic ones
/// (`\x00`–`\x08`, `\x0b`, `\x0c`, `\x0e`–`\x1f`) through unescaped,
/// producing invalid JSON that a lenient client parser could resolve
/// differently than [`check_json_structure`] saw — the same
/// parser-differential shape as response splitting.
pub fn escape_tainted(v: &TaintedString) -> TaintedString {
    crate::html::escape_bytes(v, json_replacement)
}

pub(crate) fn json_replacement(b: u8) -> Option<&'static str> {
    match b {
        b'\\' => Some("\\\\"),
        b'"' => Some("\\\""),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        b'\t' => Some("\\t"),
        b'<' => Some("\\u003c"),
        b'>' => Some("\\u003e"),
        b if b < 0x20 => Some(CONTROL_ESCAPES[b as usize]),
        _ => None,
    }
}

/// `\u00XX` escapes indexed by control byte (the `\n`/`\r`/`\t` slots are
/// shadowed by their short forms above and kept only for alignment). The
/// byte→escape correspondence is asserted mechanically in tests.
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\u0009", "\\u000a", "\\u000b", "\\u000c", "\\u000d", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

fn escape_plain(s: &str) -> String {
    escape_tainted(&TaintedString::from(s)).into_plain()
}

/// Rejects JSON output whose *structure* (anything outside string
/// literals) carries untrusted bytes.
pub fn check_json_structure(json: &TaintedString) -> Result<()> {
    let bytes = json.as_str().as_bytes();
    // Resolve the untrusted ranges once instead of per byte.
    let untrusted = json.ranges_with::<UntrustedData>();
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        let structural = !in_str || b == b'"';
        if structural && untrusted.iter().any(|r| r.contains(&i)) {
            return Err(PolicyViolation::new(
                "JsonGuard",
                format!("untrusted data in JSON structure at byte {i}"),
            )
            .into());
        }
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn encode_escapes_hostile_values() {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), untrusted("x\",\"admin\":true,\"y\":\""));
        let j = encode_object(&m);
        assert!(j.as_str().contains("\\\""), "quotes escaped");
        assert!(check_json_structure(&j).is_ok(), "escaped output is safe");
    }

    #[test]
    fn naive_concatenation_caught() {
        // A vulnerable app builds JSON by string concatenation.
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("x\",\"admin\":true,\"z\":\""));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_err());
    }

    #[test]
    fn untrusted_content_inside_string_ok() {
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("benign text"));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_ok());
    }

    #[test]
    fn script_breakout_escaped() {
        let mut m = BTreeMap::new();
        m.insert(
            "c".to_string(),
            untrusted("</script><script>evil()</script>"),
        );
        let j = encode_object(&m);
        assert!(!j.as_str().contains("</script>"), "angle brackets escaped");
    }

    #[test]
    fn control_escape_table_matches_its_indexes() {
        for (b, esc) in CONTROL_ESCAPES.iter().enumerate() {
            assert_eq!(
                *esc,
                format!("\\u{b:04x}"),
                "table entry {b:#04x} names the wrong code point"
            );
        }
    }

    #[test]
    fn control_bytes_are_escaped() {
        // Raw control bytes below 0x20 are invalid inside JSON strings; a
        // lenient client parser could re-interpret them differently than
        // the structure check did. Every one must leave as an escape.
        let raw: String = (0x00u8..0x20).map(|b| b as char).collect();
        let mut m = BTreeMap::new();
        m.insert("c".to_string(), untrusted(&raw));
        let j = encode_object(&m);
        for b in j.as_str().bytes() {
            assert!(
                b >= 0x20,
                "raw control byte {b:#04x} escaped the encoder: {}",
                j.as_str().escape_debug()
            );
        }
        // The dedicated short escapes are used where JSON defines them.
        assert!(j.as_str().contains("\\n"));
        assert!(j.as_str().contains("\\r"));
        assert!(j.as_str().contains("\\t"));
        assert!(j.as_str().contains("\\u0000"));
        assert!(j.as_str().contains("\\u001f"));
        assert!(check_json_structure(&j).is_ok());
        // Taint attribution: the escapes are server text, the surrounding
        // object structure stays untainted.
        assert!(j.label_at(0).is_empty());
    }

    #[test]
    fn multiple_fields_encoded() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), TaintedString::from("1"));
        m.insert("b".to_string(), TaintedString::from("2"));
        let j = encode_object(&m);
        assert_eq!(j.as_str(), "{\"a\":\"1\",\"b\":\"2\"}");
    }
}
