//! HTML escaping, sanitizer evidence, and the cross-site-scripting guard
//! (§5.3).
//!
//! Two strategies, mirroring the SQL-injection pair:
//!
//! * **Marker check** — the sanitizer attaches [`HtmlSanitized`] to the
//!   data it escapes; [`check_html_markers`] rejects output containing
//!   `UntrustedData` bytes without the marker.
//! * **Structure check** — [`check_html_structure`] parses the final HTML
//!   and rejects untrusted bytes in markup structure (inside tags) or in
//!   JavaScript (`<script>` bodies, `on*` attributes arrive inside tags so
//!   the tag rule covers them).

use std::sync::Arc;

use resin_core::{
    HtmlSanitized, PolicyViolation, Result, StaticLabel, TaintedStrBuilder, TaintedString,
    UntrustedData,
};

/// Single-pass byte-escape walker shared by the HTML and JSON encoders:
/// untouched stretches are carried span-for-span, escape sequences are
/// server text (untainted, as in a `replace` with an untainted
/// replacement). `table` maps a byte to its replacement, `None` for
/// pass-through; only ASCII bytes may be escaped, so UTF-8 boundaries are
/// never split.
pub(crate) fn escape_bytes(
    input: &TaintedString,
    table: impl Fn(u8) -> Option<&'static str>,
) -> TaintedString {
    let text = input.as_str();
    let mut out = TaintedStrBuilder::with_capacity(text.len() + 8);
    let mut start = 0usize;
    for (i, b) in text.bytes().enumerate() {
        let Some(rep) = table(b) else { continue };
        out.push_range(input, start..i);
        out.push_str(rep);
        start = i + 1;
    }
    out.push_range(input, start..text.len());
    out.build()
}

/// The sanitizer's marker label, memoized.
static HTML_SANITIZED: StaticLabel = StaticLabel::new(|| Arc::new(HtmlSanitized::new()));

/// Escapes HTML metacharacters and attaches the [`HtmlSanitized`] marker.
///
/// This is "the existing sanitization function" of §5.3 step 3: it both
/// neutralizes the data *and* records the evidence that it did.
pub fn html_escape(input: &TaintedString) -> TaintedString {
    let mut out = escape_bytes(input, html_replacement);
    out.add_label(HTML_SANITIZED.get());
    out
}

fn html_replacement(b: u8) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        b'\'' => Some("&#39;"),
        _ => None,
    }
}

/// Strategy 1: every untrusted byte must carry the sanitizer's marker.
pub fn check_html_markers(output: &TaintedString) -> Result<()> {
    let bad = output.ranges_where(|l| l.has::<UntrustedData>() && !l.has::<HtmlSanitized>());
    if let Some(r) = bad.first() {
        let snippet = output.slice(r.clone());
        return Err(PolicyViolation::new(
            "XssGuard",
            format!(
                "unsanitized untrusted data in HTML at bytes {}..{}: `{}`",
                r.start,
                r.end,
                snippet.as_str()
            ),
        )
        .into());
    }
    Ok(())
}

/// Strategy 2: untrusted bytes may not appear in markup structure or
/// JavaScript.
///
/// The scanner walks the HTML byte-by-byte tracking whether it is inside a
/// tag (`<...>`) or inside a `<script>` element; untrusted bytes in either
/// region reject the output. Untrusted *text content* between tags is
/// allowed — it renders as text, not code.
pub fn check_html_structure(output: &TaintedString) -> Result<()> {
    let bytes = output.as_str().as_bytes();
    let lower = output.as_str().to_ascii_lowercase();
    // Resolve the untrusted ranges once (a handful of coalesced spans)
    // instead of a label-table hit per byte.
    let untrusted = output.ranges_with::<UntrustedData>();
    let mut in_tag = false;
    let mut in_script = false;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if !in_tag && c == b'<' {
            in_tag = true;
            if lower[i..].starts_with("<script") {
                in_script = true;
            }
            if lower[i..].starts_with("</script") {
                in_script = false;
            }
        }
        let structural = in_tag || in_script || c == b'<' || c == b'>';
        if structural && untrusted.iter().any(|r| r.contains(&i)) {
            return Err(PolicyViolation::new(
                "XssGuard",
                format!("untrusted data in HTML structure at byte {i}"),
            )
            .into());
        }
        if in_tag && c == b'>' {
            in_tag = false;
        }
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyRef, SqlSanitized};

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    /// The slice-per-run walker `escape_bytes` replaced, kept as the
    /// differential oracle: each safe run is sliced into its own
    /// `TaintedString` and pushed.
    fn escape_bytes_sliced(
        input: &TaintedString,
        table: fn(u8) -> Option<&'static str>,
    ) -> TaintedString {
        let text = input.as_str();
        let mut out = TaintedStrBuilder::with_capacity(text.len() + 8);
        let mut start = 0usize;
        for (i, b) in text.bytes().enumerate() {
            let Some(rep) = table(b) else { continue };
            out.push_tainted(&input.slice(start..i));
            out.push_str(rep);
            start = i + 1;
        }
        out.push_tainted(&input.slice(start..text.len()));
        out.build()
    }

    /// Generated escaper input: metacharacters (often adjacent),
    /// multibyte UTF-8 and control bytes, with up to five overlapping
    /// labeled ranges drawn from a small policy pool.
    fn generated(rng: &mut proptest::TestRng) -> TaintedString {
        const PIECES: &[&str] = &[
            "a", "b", " ", "<", ">", "&", "\"", "'", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}",
            "é", "日本", "🙂", "<<", "&&", "\"'",
        ];
        let pool: [PolicyRef; 4] = [
            Arc::new(UntrustedData::from_source("esc-a")),
            Arc::new(UntrustedData::from_source("esc-b")),
            Arc::new(SqlSanitized::new()),
            Arc::new(HtmlSanitized::new()),
        ];
        let mut text = String::new();
        for _ in 0..rng.below(24) {
            text.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
        }
        let bounds: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let mut s = TaintedString::from(text);
        for _ in 0..rng.below(6) {
            let a = bounds[rng.below(bounds.len() as u64) as usize];
            let b = bounds[rng.below(bounds.len() as u64) as usize];
            let policy = pool[rng.below(pool.len() as u64) as usize].clone();
            s.add_policy_range(a.min(b)..a.max(b), policy);
        }
        s
    }

    /// Byte- and label-identical, span for span.
    fn assert_identical(got: &TaintedString, want: &TaintedString, input: &TaintedString) {
        assert_eq!(got.as_str(), want.as_str(), "input {input:?}");
        for i in 0..got.len() {
            assert_eq!(got.label_at(i), want.label_at(i), "byte {i} of {input:?}");
        }
        let spans = |s: &TaintedString| s.spans().collect::<Vec<_>>();
        assert_eq!(spans(got), spans(want), "input {input:?}");
    }

    #[test]
    fn escapers_match_the_sliced_oracle() {
        let mut rng = proptest::TestRng::new(proptest::seed_from_name("escape_oracle"));
        let mut inputs: Vec<TaintedString> = (0..600).map(|_| generated(&mut rng)).collect();
        inputs.push(TaintedString::new());
        inputs.push(untrusted(""));
        for input in &inputs {
            let mut want = escape_bytes_sliced(input, html_replacement);
            want.add_policy(Arc::new(HtmlSanitized::new()));
            assert_identical(&html_escape(input), &want, input);

            let want = escape_bytes_sliced(input, crate::json::json_replacement);
            assert_identical(&crate::json::escape_tainted(input), &want, input);
        }
    }

    #[test]
    fn escape_neutralizes_and_marks() {
        let e = html_escape(&untrusted("<script>alert('x')</script>"));
        assert_eq!(
            e.as_str(),
            "&lt;script&gt;alert(&#39;x&#39;)&lt;/script&gt;"
        );
        assert!(e.has_policy::<HtmlSanitized>());
        assert!(
            e.has_policy::<UntrustedData>(),
            "taint retained as evidence"
        );
    }

    #[test]
    fn marker_check_blocks_raw_untrusted() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&untrusted("<script>evil()</script>"));
        page.push_str("</p>");
        assert!(check_html_markers(&page).is_err());
    }

    #[test]
    fn marker_check_allows_sanitized() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&html_escape(&untrusted("<script>evil()</script>")));
        page.push_str("</p>");
        assert!(check_html_markers(&page).is_ok());
    }

    #[test]
    fn structure_check_blocks_script_injection() {
        let mut page = TaintedString::from("<p>hello ");
        page.push_tainted(&untrusted("<script>steal()</script>"));
        page.push_str("</p>");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn structure_check_allows_untrusted_text() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&untrusted("just some text with no markup"));
        page.push_str("</p>");
        assert!(check_html_structure(&page).is_ok());
    }

    #[test]
    fn structure_check_blocks_attribute_injection() {
        // Untrusted bytes inside a tag (attribute position).
        let mut page = TaintedString::from("<img src=\"");
        page.push_tainted(&untrusted("x\" onerror=\"evil()"));
        page.push_str("\">");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn structure_check_blocks_untrusted_inside_script_body() {
        let mut page = TaintedString::from("<script>var q = \"");
        page.push_tainted(&untrusted("\";steal();//"));
        page.push_str("\";</script>");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn trusted_markup_passes_both() {
        let page = TaintedString::from("<html><script>app()</script></html>");
        assert!(check_html_markers(&page).is_ok());
        assert!(check_html_structure(&page).is_ok());
    }
}
