//! [`Text`]: the one string type of a telemetry record — span and event
//! names, field keys and string field values.
//!
//! Recording is the hot side, and nearly every string it is handed is
//! either a literal (`"gyan.reservation.acquire"`, `"device"`) or short
//! and built at run time (`"free_fallback"`, `"0,1"`,
//! `gpu31_pending_mib`). A `Text` keeps the first as the `&'static str`
//! it is and the second in place, up to [`Text::INLINE`] bytes; only a
//! longer run-time string owns a heap allocation. All three are 24 bytes
//! — a `String`'s size — and a reader cannot tell them apart: equality
//! and both formatters are the `str`'s.

use std::fmt;
use std::ops::Deref;

#[derive(Clone)]
enum Repr {
    /// A literal or a `const`: recorded by reference.
    Literal(&'static str),
    /// The first `len` bytes of `bytes`, copied from whole `&str`s only
    /// (so they are UTF-8; reads check rather than assume it).
    Inline { len: u8, bytes: [u8; Text::INLINE] },
    /// Longer than [`Text::INLINE`] bytes and built at run time.
    Heap(Box<str>),
}

/// A span/event name, a field key or a string field value. Build one
/// with `.into()` from a `&'static str` (kept by reference) or a
/// `String` (kept in place when short, else its allocation is taken
/// over), or with [`Text::concat`] from borrowed pieces.
#[derive(Clone)]
pub struct Text(Repr);

impl Text {
    /// Longest text held in place, in bytes.
    pub const INLINE: usize = 22;

    /// The concatenation of `parts`, copied: in place when it fits,
    /// else in one exactly-sized allocation. With one part this is the
    /// copy of a borrowed `&str`.
    pub fn concat(parts: &[&str]) -> Text {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len > Text::INLINE {
            let mut text = String::with_capacity(len);
            parts.iter().for_each(|part| text.push_str(part));
            return Text(Repr::Heap(text.into_boxed_str()));
        }
        let mut bytes = [0; Text::INLINE];
        let mut at = 0;
        for part in parts {
            bytes[at..at + part.len()].copy_from_slice(part.as_bytes());
            at += part.len();
        }
        Text(Repr::Inline { len: len as u8, bytes })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Literal(text) => text,
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("in-place bytes are only ever copied from whole strs"),
            Repr::Heap(text) => text,
        }
    }

    /// The text's bytes, without the UTF-8 check of [`Text::as_str`] —
    /// what comparisons read.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Literal(text) => text.as_bytes(),
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl From<&'static str> for Text {
    fn from(text: &'static str) -> Self {
        Text(Repr::Literal(text))
    }
}

impl From<String> for Text {
    fn from(text: String) -> Self {
        if text.len() <= Text::INLINE {
            Text::concat(&[&text])
        } else {
            Text(Repr::Heap(text.into_boxed_str()))
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for Text {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_representation_is_24_bytes_and_reads_as_its_str() {
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
        let long = "a run-time string of more than twenty-two bytes";
        let texts = [
            (Text::from("literal"), "literal"),
            (Text::from(String::from("short")), "short"),
            (Text::from(long.to_string()), long),
            (Text::concat(&["gpu", "31", "_pending_mib"]), "gpu31_pending_mib"),
            (
                Text::concat(&["gpu", "31", "_pending_mib", "_and_then_some"]),
                "gpu31_pending_mib_and_then_some",
            ),
            (Text::concat(&[]), ""),
        ];
        for (text, want) in &texts {
            assert_eq!(text.as_str(), *want);
            assert_eq!(text, want);
            assert_eq!(format!("{text} {text:?}"), format!("{want} {want:?}"));
            assert_eq!(text.clone(), *text);
        }
    }

    #[test]
    fn the_in_place_bound_is_exact() {
        let fits = "x".repeat(Text::INLINE);
        let spills = "x".repeat(Text::INLINE + 1);
        assert!(matches!(Text::from(fits.clone()).0, Repr::Inline { len: 22, .. }));
        assert!(matches!(Text::concat(&[&fits]).0, Repr::Inline { len: 22, .. }));
        assert!(matches!(Text::from(spills.clone()).0, Repr::Heap(_)));
        assert!(matches!(Text::concat(&[&fits, "x"]).0, Repr::Heap(_)));
        assert_eq!(Text::from(spills.clone()), Text::concat(&[&spills]));
        // A two-byte character ending on the bound fits; one straddling
        // it (bytes 22 and 23) spills whole.
        let (ends_on, straddles) = (format!("{}é", "x".repeat(20)), format!("{}é", "x".repeat(21)));
        assert!(matches!(Text::concat(&[&ends_on]).0, Repr::Inline { len: 22, .. }));
        assert!(matches!(Text::from(straddles.clone()).0, Repr::Heap(_)));
        assert_eq!(Text::from(ends_on.clone()), ends_on);
        assert_eq!(Text::concat(&[&straddles]), straddles);
    }
}
