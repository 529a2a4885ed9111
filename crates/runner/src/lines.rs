//! The invalid-UTF-8-tolerant line reader shared by every transport.
//!
//! The serve protocol is newline-delimited, but its inputs are hostile:
//! clients (and fuzzers) send invalid UTF-8, half-lines, and torn streams.
//! The rules for turning raw bytes into *consuming* protocol lines live
//! here, in exactly one place, so the stdin path ([`mod@crate::serve`]), the
//! socket path ([`crate::net`]), and the reconnecting client
//! ([`crate::client`]) cannot drift apart:
//!
//! * a line is read with `read_until(b'\n')`, never `lines()`, so invalid
//!   UTF-8 is decoded lossily instead of erroring the whole stream;
//! * `ErrorKind::Interrupted` reads are retried transparently;
//! * blank lines and `#` comments are skipped without producing output;
//! * `{"op": "pong"}` heartbeat replies are transport-level noise: they are
//!   answered to nobody and consume no sequence number, so an interactive
//!   session's canonical output stays a pure function of its *consuming*
//!   lines whatever the heartbeat traffic looked like.

use std::io::{self, BufRead};

/// Reads one raw line (including the trailing `\n`, if one was read) into
/// `buf`, retrying interrupted reads. Returns the byte count; 0 is EOF.
/// `buf` is cleared first.
pub fn read_raw_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    loop {
        match input.read_until(b'\n', buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Whether `buf` holds a *complete* line (the trailing newline made it
/// through the transport). A torn tail — bytes with no `\n`, as left by a
/// connection cut mid-line — must be discarded by resumable readers, never
/// acted on.
pub fn is_complete(buf: &[u8]) -> bool {
    buf.last() == Some(&b'\n')
}

/// Decodes one raw line and classifies it: `Some(trimmed)` for a consuming
/// protocol line, `None` for a blank line or `#` comment. Invalid UTF-8 is
/// decoded lossily (the replacement character participates in the line like
/// any other garbage byte and produces a parse-error reply downstream).
pub fn consuming(buf: &[u8]) -> Option<String> {
    let lossy = String::from_utf8_lossy(buf);
    let trimmed = lossy.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        None
    } else {
        Some(trimmed.to_string())
    }
}

/// Whether a consuming line is a `pong` heartbeat reply — transport-level
/// noise that consumes no sequence number. The check is deliberately cheap
/// for the overwhelmingly common case (no `pong` substring at all) and only
/// then parses.
pub fn is_pong(trimmed: &str) -> bool {
    trimmed.contains("pong")
        && crate::json::Json::parse(trimmed)
            .ok()
            .and_then(|v| v.get("op").and_then(|op| op.as_str().map(|s| s == "pong")))
            .unwrap_or(false)
}

/// Counts the consuming lines of `text` — the number of reply lines a
/// client must observe for this input. This is the client-side mirror of
/// the serve reader's accounting, built from the same primitives.
pub fn count_consuming(text: &str) -> usize {
    text.split_inclusive('\n')
        .filter(|l| consuming(l.as_bytes()).is_some_and(|t| !is_pong(&t)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consuming_skips_blanks_comments_and_tolerates_bad_utf8() {
        assert_eq!(consuming(b"\n"), None);
        assert_eq!(consuming(b"   \n"), None);
        assert_eq!(consuming(b"# comment\n"), None);
        assert_eq!(consuming(b"  {\"op\": \"stats\"}  \n"), Some("{\"op\": \"stats\"}".into()));
        let garbled = consuming(b"\xff\xfe junk\n").expect("garbage still consumes");
        assert!(garbled.contains("junk"));
    }

    #[test]
    fn pong_detection_is_exact_not_substring() {
        assert!(is_pong(r#"{"op": "pong"}"#));
        assert!(is_pong(r#"{"op": "pong", "nonce": 3}"#));
        assert!(!is_pong(r#"{"op": "ping-pong-table"}"#));
        assert!(!is_pong(r#"{"id": "pong"}"#));
        assert!(!is_pong("pong"));
    }

    #[test]
    fn count_consuming_matches_the_reader_rules() {
        let text =
            "# header\n\n{\"kind\": \"scan\"}\n{\"op\": \"pong\"}\n  \n{\"op\": \"stats\"}\n";
        assert_eq!(count_consuming(text), 2);
    }

    #[test]
    fn torn_tails_are_flagged_incomplete() {
        assert!(is_complete(b"whole line\n"));
        assert!(!is_complete(b"torn"));
        assert!(!is_complete(b""));
    }
}
