//! The framework dictionary: the ids group artifacts store in place of
//! framework names.
//!
//! Nearly every entry of a group's meter ledger names a framework class
//! or method, and every group that reaches one repeats it. A
//! [`GroupArtifact`](crate::GroupArtifact) stores such an entry as an
//! index into this dictionary: the tool's mined [`ApiDatabase`] classes
//! and methods, each list in sorted order. Only the group's own names,
//! and names the database does not know, stay spelled out.
//!
//! The dictionary is a pure function of the framework model. A
//! frozen-booted tool reads the same database out of its image that a
//! spec-built tool mines, so both build the same dictionary and can
//! share one store. Every content key already folds in the framework
//! fingerprint, so an artifact's ids are only ever read back against
//! the dictionary they were written with, and the store keeps no
//! dictionary file.

use std::collections::HashMap;
use std::hash::Hash;

use saint_adf::ApiDatabase;
use saint_ir::{ClassName, MethodRef};

/// A framework's class and method names in sorted order; an entry's id
/// is its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkDictionary {
    classes: Vec<ClassName>,
    methods: Vec<MethodRef>,
    /// The inverse of `classes`: compaction looks every ledger name
    /// up, and hashing a name is cheaper than binary-searching for it.
    class_ids: HashMap<ClassName, u32>,
    /// The inverse of `methods`.
    method_ids: HashMap<MethodRef, u32>,
}

impl FrameworkDictionary {
    /// The dictionary of a framework's API database.
    #[must_use]
    pub fn new(db: &ApiDatabase) -> Self {
        let mut classes: Vec<ClassName> = db.classes().map(|(c, _)| c.clone()).collect();
        let mut methods: Vec<MethodRef> = db.methods().map(|(m, _)| m.clone()).collect();
        classes.sort_unstable();
        methods.sort_unstable();
        FrameworkDictionary {
            class_ids: ids(&classes),
            method_ids: ids(&methods),
            classes,
            methods,
        }
    }

    /// The id of a framework class, if the dictionary holds it.
    #[must_use]
    pub fn class_id(&self, class: &ClassName) -> Option<u32> {
        self.class_ids.get(class).copied()
    }

    /// The id of a framework method, if the dictionary holds it.
    #[must_use]
    pub fn method_id(&self, method: &MethodRef) -> Option<u32> {
        self.method_ids.get(method).copied()
    }

    /// The class behind `id`; `None` when `id` is outside the dictionary.
    #[must_use]
    pub fn class(&self, id: u32) -> Option<&ClassName> {
        self.classes.get(id as usize)
    }

    /// The method behind `id`; `None` when `id` is outside the
    /// dictionary.
    #[must_use]
    pub fn method(&self, id: u32) -> Option<&MethodRef> {
        self.methods.get(id as usize)
    }
}

/// Each name's id: its index, for every index that fits a `u32` (a
/// name past that has no id and stays spelled out).
fn ids<T: Clone + Eq + Hash>(names: &[T]) -> HashMap<T, u32> {
    names
        .iter()
        .zip(0..=u32::MAX)
        .map(|(name, id)| (name.clone(), id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::AndroidFramework;

    #[test]
    fn ids_round_trip_and_follow_sorted_names() {
        let framework = AndroidFramework::curated();
        let db = framework.database();
        let dict = FrameworkDictionary::new(&db);
        for (class, _) in db.classes() {
            let id = dict.class_id(class).expect("every mined class has an id");
            assert_eq!(dict.class(id), Some(class));
        }
        for (method, _) in db.methods() {
            let id = dict
                .method_id(method)
                .expect("every mined method has an id");
            assert_eq!(dict.method(id), Some(method));
        }
        assert!(dict.class_id(&ClassName::new("com.example.App")).is_none());
        assert!(dict
            .class(u32::try_from(db.class_count()).unwrap())
            .is_none());
        assert!(dict
            .method(u32::try_from(db.method_count()).unwrap())
            .is_none());
        assert!(dict.classes.windows(2).all(|w| w[0] < w[1]), "sorted");
    }
}
