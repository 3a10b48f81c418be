//! The parameter dictionary bridging the Galaxy backend and tool wrappers.
//!
//! In Galaxy, `build_param_dict` (in `evaluation.py`) exposes backend
//! Python state to the Cheetah template as a dictionary. GYAN's paper adds
//! the `__galaxy_gpu_enabled__` entry through exactly this bridge. Our
//! [`ParamDict`] is that dictionary: string keys to string values, in
//! insertion order for reproducible command lines.

/// String-keyed, string-valued parameter dictionary: one insertion-ordered
/// list of pairs. A tool declares a handful of parameters, so a lookup
/// scans a few pairs instead of hashing, and a key is stored once.
/// Equality is order-sensitive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamDict {
    entries: Vec<(String, String)>,
}

impl ParamDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: &str) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }

    /// Insert or replace a value; a replaced key keeps its place.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        match self.position(&key) {
            Some(at) => self.entries[at].1 = value.into(),
            None => self.entries.push((key, value.into())),
        }
    }

    /// Look up a value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.position(key).map(|at| self.entries[at].1.as_str())
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        self.position(key).map(|at| self.entries.remove(at).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// (key, value) pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
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
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The dictionary as it was kept before it became one list: values in
    /// a `HashMap`, plus a second copy of every key in insertion order.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Reference {
        values: HashMap<String, String>,
        order: Vec<String>,
    }

    impl Reference {
        fn set(&mut self, key: &str, value: &str) {
            if !self.values.contains_key(key) {
                self.order.push(key.to_string());
            }
            self.values.insert(key.to_string(), value.to_string());
        }

        fn remove(&mut self, key: &str) -> Option<String> {
            self.order.retain(|k| k != key);
            self.values.remove(key)
        }

        fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
            self.order.iter().map(|k| (k.as_str(), self.values[k].as_str()))
        }

        fn extend(&mut self, other: &Reference) {
            for (k, v) in other.iter() {
                self.set(k, v);
            }
        }

        fn from_pairs(pairs: &[(&str, &str)]) -> Reference {
            let mut reference = Reference::default();
            pairs.iter().for_each(|(k, v)| reference.set(k, v));
            reference
        }
    }

    /// Few keys and values, so replacements, removals of present keys and
    /// equal dictionaries are common.
    const KEYS: [&str; 4] = ["threads", "input", "__galaxy_gpu_enabled__", "x"];
    const VALUES: [&str; 3] = ["1", "true", "reads.fq"];

    fn pairs(draws: &[(usize, usize)]) -> Vec<(&'static str, &'static str)> {
        draws.iter().map(|&(k, v)| (KEYS[k], VALUES[v])).collect()
    }

    fn assert_same(dict: &ParamDict, reference: &Reference) {
        for key in KEYS {
            assert_eq!(dict.get(key), reference.values.get(key).map(String::as_str), "{key}");
            assert_eq!(dict.contains(key), reference.values.contains_key(key), "{key}");
        }
        assert!(dict.keys().eq(reference.order.iter().map(String::as_str)));
        assert!(dict.iter().eq(reference.iter()));
        assert_eq!(dict.len(), reference.values.len());
        assert_eq!(dict.is_empty(), reference.values.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_ordered_list_answers_like_the_map_and_its_key_order(
            ops in prop::collection::vec(
                (0usize..4, 0usize..2, 0usize..4, 0usize..3, prop::collection::vec((0usize..4, 0usize..3), 0..4)),
                0..24,
            ),
        ) {
            // Two dictionaries side by side, each beside its reference, so
            // `==` is compared on pairs reached by different histories.
            let mut dicts = [ParamDict::new(), ParamDict::new()];
            let mut references = [Reference::default(), Reference::default()];
            for (op, which, key, value, batch) in ops {
                let (dict, reference) = (&mut dicts[which], &mut references[which]);
                let (key, value) = (KEYS[key], VALUES[value]);
                let batch = pairs(&batch);
                match op {
                    0 => {
                        dict.set(key, value);
                        reference.set(key, value);
                    }
                    1 => prop_assert_eq!(dict.remove(key), reference.remove(key)),
                    2 => {
                        dict.extend(&batch.iter().copied().collect());
                        reference.extend(&Reference::from_pairs(&batch));
                    }
                    _ => {
                        *dict = batch.iter().copied().collect();
                        *reference = Reference::from_pairs(&batch);
                    }
                }
                assert_same(dict, reference);
                prop_assert_eq!(dicts[0] == dicts[1], references[0] == references[1]);
            }
        }
    }

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
