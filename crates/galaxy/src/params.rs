//! The parameter dictionary bridging the Galaxy backend and tool wrappers.
//!
//! In Galaxy, `build_param_dict` (in `evaluation.py`) exposes backend
//! Python state to the Cheetah template as a dictionary. GYAN's paper adds
//! the `__galaxy_gpu_enabled__` entry through exactly this bridge. Our
//! [`ParamDict`] is that dictionary: string keys to string values, with an
//! insertion-ordered view for reproducible command lines.

use std::collections::HashMap;

/// String-keyed, string-valued parameter dictionary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamDict {
    values: HashMap<String, String>,
    order: Vec<String>,
}

impl ParamDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        if !self.values.contains_key(&key) {
            self.order.push(key.clone());
        }
        self.values.insert(key, value.into());
    }

    /// Look up a value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        self.order.retain(|k| k != key);
        self.values.remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// (key, value) pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.order.iter().map(|k| (k.as_str(), self.values[k].as_str()))
    }

    /// Merge `other` into `self` (other wins on conflicts).
    pub fn extend(&mut self, other: &ParamDict) {
        for (k, v) in other.iter() {
            self.set(k, v);
        }
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for ParamDict {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut dict = ParamDict::new();
        for (k, v) in iter {
            dict.set(k, v);
        }
        dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut p = ParamDict::new();
        p.set("threads", "4");
        assert_eq!(p.get("threads"), Some("4"));
        p.set("threads", "8");
        assert_eq!(p.get("threads"), Some("8"));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn insertion_order_preserved() {
        let mut p = ParamDict::new();
        p.set("z", "1");
        p.set("a", "2");
        p.set("m", "3");
        let keys: Vec<&str> = p.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn remove_drops_order_entry() {
        let mut p = ParamDict::new();
        p.set("a", "1");
        p.set("b", "2");
        assert_eq!(p.remove("a"), Some("1".into()));
        assert_eq!(p.keys().collect::<Vec<_>>(), vec!["b"]);
        assert!(!p.contains("a"));
    }

    #[test]
    fn extend_overwrites() {
        let mut a: ParamDict = [("x", "1"), ("y", "2")].into_iter().collect();
        let b: ParamDict = [("y", "9"), ("z", "3")].into_iter().collect();
        a.extend(&b);
        assert_eq!(a.get("y"), Some("9"));
        assert_eq!(a.get("z"), Some("3"));
        assert_eq!(a.len(), 3);
    }
}
