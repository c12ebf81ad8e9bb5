//! Interned names: the lane, kind and attribute keys of an event.
//!
//! A 128-node run records tens of thousands of events but only a few
//! hundred distinct names. [`Name`] is a cheap-clone handle on one shared
//! allocation per distinct name; [`Names`] is the table that hands them
//! out (one per `events.jsonl` read, one per bus snapshot); [`Attrs`] is
//! the key-sorted flat vector of an event's numeric attributes. Loading
//! a trace therefore allocates strings per *distinct name*, not per
//! event.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable name. Reads as a `&str` everywhere (`Deref`);
/// equality, order and hash are `Arc<str>`'s, that is the text's (so
/// `Borrow<str>` lookups work). Sorts that want the pointer shortcut
/// compare through [`cmp_names`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether both handles point at one allocation.
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Whether this handle points at `arc`'s allocation.
    pub fn shares(&self, arc: &Arc<str>) -> bool {
        Arc::ptr_eq(&self.0, arc)
    }
}

/// Text order with an address shortcut: slices of one allocation (or one
/// literal) are equal without a byte compare. The canonical event sorts
/// break their `t` ties with this.
pub fn cmp_names(a: &str, b: &str) -> Ordering {
    if std::ptr::eq(a, b) {
        Ordering::Equal
    } else {
        a.cmp(b)
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Name {
        Name(s)
    }
}

/// An intern table: every distinct text maps to one [`Name`]. The texts
/// come from files a user hands us, so the table keeps the standard keyed
/// hasher; it is only ever probed, never iterated, so nothing read
/// through it depends on the key.
#[derive(Default)]
pub struct Names {
    set: HashSet<Name>,
}

impl Names {
    /// The table's handle for `text`, allocating it the first time.
    pub fn intern(&mut self, text: &str) -> Name {
        self.get_or(text, || Name::from(text))
    }

    /// The table's handle for `arc`'s text. The first `Arc` seen for a
    /// text *becomes* that handle, so names adopted from an
    /// [`crate::EventBus`] share the bus's own allocations.
    pub fn adopt(&mut self, arc: &Arc<str>) -> Name {
        self.get_or(arc, || Name(arc.clone()))
    }

    fn get_or(&mut self, text: &str, make: impl FnOnce() -> Name) -> Name {
        if let Some(name) = self.set.get(text) {
            return name.clone();
        }
        let name = make();
        self.set.insert(name.clone());
        name
    }
}

/// The numeric attributes of one event: `(key, value)` pairs in
/// ascending key order, one entry per key — what a
/// `BTreeMap<String, f64>` would iterate, in one allocation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attrs(Vec<(Name, f64)>);

impl Attrs {
    /// No attributes.
    pub fn new() -> Self {
        Attrs(Vec::new())
    }

    /// Position of `key`, or where it would go.
    fn slot(&self, key: &str) -> Result<usize, usize> {
        // Artifacts list keys in ascending order: appending is the rule.
        match self.0.last() {
            Some((last, _)) if last.as_str() < key => Err(self.0.len()),
            _ => self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)),
        }
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.slot(key).ok().map(|i| self.0[i].1)
    }

    /// Sets `key` to `value`, replacing an earlier value; `name` is only
    /// asked for a handle when the key is new.
    pub fn set_with(&mut self, key: &str, value: f64, name: impl FnOnce() -> Name) {
        match self.slot(key) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (name(), value)),
        }
    }

    /// Sets `key` to `value`, replacing an earlier value.
    pub fn insert(&mut self, key: Name, value: f64) {
        self.set_with(&key.clone(), value, || key);
    }

    /// Forgets `key`.
    pub fn remove(&mut self, key: &str) {
        if let Ok(i) = self.slot(key) {
            self.0.remove(i);
        }
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pairs, in ascending key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Name, f64)> {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = &'a (Name, f64);
    type IntoIter = std::slice::Iter<'a, (Name, f64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<K: Into<Name>> FromIterator<(K, f64)> for Attrs {
    /// Collects in any order; a repeated key keeps its last value.
    fn from_iter<I: IntoIterator<Item = (K, f64)>>(pairs: I) -> Self {
        let mut attrs = Attrs::new();
        for (k, v) in pairs {
            attrs.insert(k.into(), v);
        }
        attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_reads_and_compares_as_its_text() {
        let a = Name::from("node0-sched");
        let b = Name::from(String::from("node0-sched"));
        assert!(!Name::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a, "node0-sched");
        assert!(a.ends_with("-sched"));
        assert_eq!(a.cmp(&Name::from("node1-sched")), Ordering::Less);
        assert_eq!(format!("{a} {a:?}"), "node0-sched \"node0-sched\"");
        assert_eq!(cmp_names(&a, &a), Ordering::Equal);
    }

    #[test]
    fn a_table_hands_out_one_allocation_per_text() {
        let mut names = Names::default();
        let a = names.intern("kernel");
        let b = names.intern(&String::from("kernel"));
        assert!(Name::ptr_eq(&a, &b));
        let arc: Arc<str> = Arc::from("h2d");
        let c = names.adopt(&arc);
        assert!(c.shares(&arc));
        assert!(Name::ptr_eq(&c, &names.intern("h2d")));
        let other: Arc<str> = Arc::from("h2d");
        assert!(names.adopt(&other).shares(&arc), "the first Arc stays");
    }

    #[test]
    fn attrs_stay_sorted_and_keep_the_last_value() {
        let attrs: Attrs = [("flops", 1.0), ("bytes", 2.0), ("flops", 3.0)]
            .into_iter()
            .collect();
        let pairs: Vec<(&str, f64)> = attrs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(pairs, [("bytes", 2.0), ("flops", 3.0)]);
        assert_eq!(attrs.get("flops"), Some(3.0));
        assert_eq!(attrs.get("flow"), None);
        let mut attrs = attrs;
        attrs.remove("bytes");
        attrs.insert("a".into(), 0.5);
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs.iter().next().unwrap().0, "a");
    }
}
