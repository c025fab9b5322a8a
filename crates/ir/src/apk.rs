//! Dex files and the APK container.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::class::ClassDef;
use crate::error::IrError;
use crate::manifest::Manifest;
use crate::name::ClassName;

/// A dex file: a named collection of class definitions.
///
/// Each class is held behind an `Arc`, so everything downstream of a
/// decode — the CLVM's dex providers, the delta tier's group
/// projections, a cloned `DexFile` — shares the one decoded copy
/// instead of deep-copying it ([`shared_classes`](Self::shared_classes)).
/// There is no in-place mutation: replacing a class goes through
/// [`update_class`](Self::update_class), which swaps the `Arc`, so a
/// shared class can never change under another holder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DexFile {
    /// File name inside the package, e.g. `classes.dex` or
    /// `assets/payload.dex`.
    pub name: String,
    classes: BTreeMap<ClassName, Arc<ClassDef>>,
}

impl DexFile {
    /// Creates an empty dex file.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        DexFile {
            name: name.into(),
            classes: BTreeMap::new(),
        }
    }

    /// Adds a class definition.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DuplicateClass`] if the class already exists
    /// in this dex file.
    pub fn add_class(&mut self, class: ClassDef) -> Result<(), IrError> {
        self.add_shared_class(Arc::new(class))
    }

    /// Adds a class definition already shared with other holders (a
    /// projection of another dex file's class).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DuplicateClass`] if the class already exists
    /// in this dex file.
    pub fn add_shared_class(&mut self, class: Arc<ClassDef>) -> Result<(), IrError> {
        if self.classes.contains_key(&class.name) {
            return Err(IrError::DuplicateClass {
                class: class.name.to_string(),
            });
        }
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    /// Looks up a class by name.
    #[must_use]
    pub fn class(&self, name: &ClassName) -> Option<&ClassDef> {
        self.classes.get(name).map(|c| &**c)
    }

    /// Looks up a class by name, as the shared handle this dex file
    /// holds.
    #[must_use]
    pub fn shared_class(&self, name: &ClassName) -> Option<&Arc<ClassDef>> {
        self.classes.get(name)
    }

    /// Removes a class definition, returning it if present (used by
    /// the lineage generator to model deletions across app versions).
    pub fn remove_class(&mut self, name: &ClassName) -> Option<ClassDef> {
        self.classes.remove(name).map(Arc::unwrap_or_clone)
    }

    /// Inserts or replaces a class definition (used by repair tooling
    /// to write back patched classes).
    pub fn update_class(&mut self, class: ClassDef) {
        self.classes.insert(class.name.clone(), Arc::new(class));
    }

    /// Iterates all classes in name order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values().map(|c| &**c)
    }

    /// Iterates all classes in name order, as the shared handles this
    /// dex file holds.
    pub fn shared_classes(&self) -> impl Iterator<Item = &Arc<ClassDef>> {
        self.classes.values()
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the dex file holds no classes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total size in code units.
    #[must_use]
    pub fn size_units(&self) -> usize {
        self.classes().map(ClassDef::size_units).sum()
    }
}

/// An application package: manifest plus one or more dex files.
///
/// `primary` models `classes.dex` (loaded at install time); entries in
/// `secondary` model code shipped in the package but bound at run time
/// through `DexClassLoader` — SAINTDroid conservatively analyzes those
/// too (paper §III-A, late binding), unlike tools that only see the
/// main dex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Apk {
    /// The app manifest.
    pub manifest: Manifest,
    /// The install-time dex (`classes.dex`).
    pub primary: DexFile,
    /// Dynamically loaded dex payloads bundled in the package, keyed by
    /// their in-package path (the string passed to `DexClassLoader`).
    pub secondary: Vec<DexFile>,
    /// Whether app "source" is available. LINT requires building from
    /// source (paper §IV-A); eight benchmark apps could not be built and
    /// were excluded from LINT's rows.
    pub has_source: bool,
}

impl Apk {
    /// Creates an APK with an empty primary dex.
    #[must_use]
    pub fn new(manifest: Manifest) -> Self {
        Apk {
            manifest,
            primary: DexFile::new("classes.dex"),
            secondary: Vec::new(),
            has_source: true,
        }
    }

    /// Looks up a class in the primary dex only (install-time view).
    #[must_use]
    pub fn primary_class(&self, name: &ClassName) -> Option<&ClassDef> {
        self.primary.class(name)
    }

    /// Looks up a class anywhere in the package, primary first.
    #[must_use]
    pub fn any_class(&self, name: &ClassName) -> Option<&ClassDef> {
        self.primary
            .class(name)
            .or_else(|| self.secondary.iter().find_map(|d| d.class(name)))
    }

    /// Iterates every class in the package (primary, then secondary).
    pub fn all_classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.all_shared_classes().map(|c| &**c)
    }

    /// Iterates every class in the package (primary, then secondary),
    /// as the shared handles the dex files hold.
    pub fn all_shared_classes(&self) -> impl Iterator<Item = &Arc<ClassDef>> {
        self.primary
            .shared_classes()
            .chain(self.secondary.iter().flat_map(DexFile::shared_classes))
    }

    /// Total number of classes across all dex files.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.primary.len() + self.secondary.iter().map(DexFile::len).sum::<usize>()
    }

    /// Total code size in units.
    #[must_use]
    pub fn size_units(&self) -> usize {
        self.primary.size_units()
            + self
                .secondary
                .iter()
                .map(DexFile::size_units)
                .sum::<usize>()
    }

    /// Estimated thousands of lines of Dex code, the size measure used
    /// by the paper's Figure 3 x-axis (one "line" ≈ 2 code units).
    #[must_use]
    pub fn kloc(&self) -> f64 {
        self.size_units() as f64 / 2.0 / 1000.0
    }
}

impl fmt::Display for Apk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "apk {} ({} classes, {:.1} KLOC{})",
            self.manifest.package,
            self.class_count(),
            self.kloc(),
            if self.secondary.is_empty() {
                String::new()
            } else {
                format!(", {} secondary dex", self.secondary.len())
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassOrigin;
    use crate::level::ApiLevel;

    fn manifest() -> Manifest {
        Manifest::new(
            "com.example.app",
            ApiLevel::new(21),
            ApiLevel::new(28),
            None,
        )
        .unwrap()
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut d = DexFile::new("classes.dex");
        d.add_class(ClassDef::new("a.B", ClassOrigin::App)).unwrap();
        let err = d
            .add_class(ClassDef::new("a.B", ClassOrigin::App))
            .unwrap_err();
        assert!(matches!(err, IrError::DuplicateClass { .. }));
    }

    #[test]
    fn primary_vs_any_lookup() {
        let mut apk = Apk::new(manifest());
        apk.primary
            .add_class(ClassDef::new("a.Main", ClassOrigin::App))
            .unwrap();
        let mut payload = DexFile::new("assets/payload.dex");
        payload
            .add_class(ClassDef::new("a.Plugin", ClassOrigin::DynamicPayload))
            .unwrap();
        apk.secondary.push(payload);

        let plugin = ClassName::new("a.Plugin");
        assert!(apk.primary_class(&plugin).is_none());
        assert!(apk.any_class(&plugin).is_some());
        assert_eq!(apk.class_count(), 2);
        assert_eq!(apk.all_classes().count(), 2);
    }

    #[test]
    fn clones_share_classes_and_updates_do_not_leak() {
        let mut d = DexFile::new("classes.dex");
        d.add_class(ClassDef::new("a.B", ClassOrigin::App)).unwrap();
        let name = ClassName::new("a.B");
        let copy = d.clone();
        assert!(Arc::ptr_eq(
            d.shared_class(&name).unwrap(),
            copy.shared_class(&name).unwrap()
        ));
        // Replacing swaps the handle; the other holder keeps the old
        // definition.
        d.update_class(ClassDef::new("a.B", ClassOrigin::Library));
        assert_eq!(d.class(&name).unwrap().origin, ClassOrigin::Library);
        assert_eq!(copy.class(&name).unwrap().origin, ClassOrigin::App);
        assert_eq!(d.remove_class(&name).unwrap().origin, ClassOrigin::Library);
    }

    #[test]
    fn kloc_scales_with_size() {
        let mut apk = Apk::new(manifest());
        let before = apk.kloc();
        let mut c = ClassDef::new("a.Big", ClassOrigin::App);
        for i in 0..50 {
            let body = crate::body::MethodBody::from_blocks(vec![crate::body::BasicBlock {
                instrs: vec![crate::instr::Instr::Nop; 100],
                terminator: crate::body::Terminator::Return(None),
            }])
            .unwrap();
            c.add_method(crate::class::MethodDef::concrete(
                format!("m{i}"),
                "()V",
                body,
            ))
            .unwrap();
        }
        apk.primary.add_class(c).unwrap();
        assert!(apk.kloc() > before);
    }

    #[test]
    fn display_summarizes() {
        let apk = Apk::new(manifest());
        let s = apk.to_string();
        assert!(s.contains("com.example.app"));
        assert!(s.contains("0 classes"));
    }
}
