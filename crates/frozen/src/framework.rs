//! Freezing and attaching the framework model.
//!
//! The compiler lowers a mined [`AndroidFramework`] — API database,
//! permission map, and every `(api level, class)` materialization — to
//! one `SFRZ` image. The attach path maps that image back and serves:
//!
//! - the database and permission map, reconstructed in one linear pass
//!   over compact varint tables (no per-level surface diffing, which is
//!   what makes frozen startup cheap);
//! - class bodies **in place**: a sorted fixed-width offset table is
//!   binary-searched against the mapped bytes and each hit hands back a
//!   zero-copy `&[u8]` SAPK class blob, decoded only on demand.
//!
//! Identical per-level blobs are deduplicated at compile time (most
//! classes do not change at most level transitions), which keeps both
//! the image and the bulk-preload working set small.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use saint_adf::{
    spec_fingerprint, AndroidFramework, ApiDatabase, ClassSource, FrameworkSpec, LifeSpan,
    PermissionMap,
};
use saint_ir::{codec, ApiLevel, ClassDef, ClassName, MethodRef, Permission};

use crate::error::FrozenError;
use crate::format::{
    assemble, layout_offsets, put_str, put_varint, section, Cursor, Image, KIND_FRAMEWORK,
};
use crate::mmap::MappedBytes;

/// Bytes per `CLASS_INDEX` entry: `name_off u64, name_len u32,
/// level u32, blob_off u64, blob_len u64`.
const INDEX_ENTRY_LEN: usize = 32;

fn put_life(buf: &mut Vec<u8>, life: LifeSpan) {
    buf.push(life.since.get());
    match life.removed {
        Some(l) => {
            buf.push(1);
            buf.push(l.get());
        }
        None => buf.push(0),
    }
}

fn put_method_ref(buf: &mut Vec<u8>, m: &MethodRef) {
    put_str(buf, m.class.as_str());
    put_str(buf, &m.name);
    put_str(buf, &m.descriptor);
}

/// Compiles a framework into a frozen image. Mines the database and
/// permission map if they have not been built yet; materializes every
/// `(level, class)` body. Deterministic: the same framework always
/// produces byte-identical output.
#[must_use]
pub fn freeze_framework(framework: &AndroidFramework) -> Vec<u8> {
    let spec = framework.spec();
    let db = framework.database();
    let perms = framework.permission_map();

    // API method lifetimes, sorted for determinism.
    let mut methods: Vec<(&MethodRef, LifeSpan)> = db.methods().collect();
    methods.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut api_methods = Vec::new();
    put_varint(&mut api_methods, methods.len() as u64);
    for (m, life) in methods {
        put_method_ref(&mut api_methods, m);
        put_life(&mut api_methods, life);
    }

    // API class lifetimes.
    let mut classes: Vec<(&ClassName, LifeSpan)> = db.classes().collect();
    classes.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut api_classes = Vec::new();
    put_varint(&mut api_classes, classes.len() as u64);
    for (c, life) in classes {
        put_str(&mut api_classes, c.as_str());
        put_life(&mut api_classes, life);
    }

    // Superclass edges.
    let mut supers: Vec<(&ClassName, Option<&ClassName>)> = db.supers().collect();
    supers.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut api_supers = Vec::new();
    put_varint(&mut api_supers, supers.len() as u64);
    for (c, s) in supers {
        put_str(&mut api_supers, c.as_str());
        match s {
            Some(s) => {
                api_supers.push(1);
                put_str(&mut api_supers, s.as_str());
            }
            None => api_supers.push(0),
        }
    }

    // Permission map (BTreeMap iteration is already sorted).
    let entries: Vec<(&MethodRef, &[Permission])> = perms.iter().collect();
    let mut perm_bytes = Vec::new();
    put_varint(&mut perm_bytes, entries.len() as u64);
    for (m, ps) in entries {
        put_method_ref(&mut perm_bytes, m);
        put_varint(&mut perm_bytes, ps.len() as u64);
        for p in ps {
            put_str(&mut perm_bytes, p.as_str());
        }
    }

    // Class bodies: one SAPK class blob per (class, level), identical
    // blobs deduplicated. Entries are (name, level)-sorted because the
    // spec iterates classes in name order and levels ascend.
    let mut str_bytes = Vec::new();
    let mut blob_bytes = Vec::new();
    let mut dedup: HashMap<Vec<u8>, (u64, u64)> = HashMap::new();
    // (name_off, name_len, level, blob_off, blob_len) — offsets
    // relative to their sections until layout is known.
    let mut entries: Vec<(u64, u32, u32, u64, u64)> = Vec::new();
    for class in spec.classes() {
        let name_off = str_bytes.len() as u64;
        let name_len = class.name.as_str().len() as u32;
        str_bytes.extend_from_slice(class.name.as_str().as_bytes());
        for level in ApiLevel::all_modeled() {
            let Some(def) = spec.materialize_class(&class.name, level) else {
                continue;
            };
            let enc = codec::encode_class(&def);
            let (blob_off, blob_len) = *dedup.entry(enc).or_insert_with_key(|enc| {
                let off = blob_bytes.len() as u64;
                blob_bytes.extend_from_slice(enc);
                (off, enc.len() as u64)
            });
            entries.push((
                name_off,
                name_len,
                u32::from(level.get()),
                blob_off,
                blob_len,
            ));
        }
    }

    let index_len = 4 + entries.len() * INDEX_ENTRY_LEN;
    let sizes = [
        api_methods.len(),
        api_classes.len(),
        api_supers.len(),
        perm_bytes.len(),
        str_bytes.len(),
        index_len,
        blob_bytes.len(),
    ];
    let offsets = layout_offsets(&sizes);
    let str_base = offsets[4] as u64;
    let blob_base = offsets[6] as u64;

    let mut index = Vec::with_capacity(index_len);
    index.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name_off, name_len, level, blob_off, blob_len) in entries {
        index.extend_from_slice(&(str_base + name_off).to_le_bytes());
        index.extend_from_slice(&name_len.to_le_bytes());
        index.extend_from_slice(&level.to_le_bytes());
        index.extend_from_slice(&(blob_base + blob_off).to_le_bytes());
        index.extend_from_slice(&blob_len.to_le_bytes());
    }

    assemble(
        KIND_FRAMEWORK,
        framework.fingerprint(),
        &[
            (section::API_METHODS, api_methods),
            (section::API_CLASSES, api_classes),
            (section::API_SUPERS, api_supers),
            (section::PERMISSIONS, perm_bytes),
            (section::STR_BYTES, str_bytes),
            (section::CLASS_INDEX, index),
            (section::CLASS_BLOBS, blob_bytes),
        ],
    )
}

struct IndexEntry<'a> {
    name: &'a str,
    level: u32,
    blob_off: u64,
    blob_len: u64,
}

/// An attached frozen framework image.
pub struct FrozenFramework {
    image: Image,
    entries: usize,
}

impl FrozenFramework {
    /// Attaches an image held in memory (tests, fuzzing, freeze-then-
    /// attach without touching disk).
    ///
    /// # Errors
    ///
    /// Any malformed header, checksum, section table, or class index
    /// yields a typed [`FrozenError`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, FrozenError> {
        Self::attach(MappedBytes::from_vec(bytes))
    }

    /// Maps and attaches an image file.
    ///
    /// # Errors
    ///
    /// I/O failures and any malformed image content yield a typed
    /// [`FrozenError`].
    pub fn open(path: &Path) -> Result<Self, FrozenError> {
        Self::attach(MappedBytes::open(path)?)
    }

    fn attach(bytes: MappedBytes) -> Result<Self, FrozenError> {
        let image = Image::parse(bytes, KIND_FRAMEWORK)?;
        let (index, base) = image.section(section::CLASS_INDEX)?;
        let mut c = Cursor::new(index, base);
        let entries = c.u32_le("class index count")? as usize;
        if index.len() != 4 + entries * INDEX_ENTRY_LEN {
            return Err(FrozenError::InvalidOffset {
                offset: base,
                context: "class index size",
            });
        }
        let fw = FrozenFramework { image, entries };
        // Validate every entry once at attach: names in-bounds and
        // UTF-8, blobs in-bounds, (name, level) strictly sorted. After
        // this pass a query can only fail if the caller asks for an
        // out-of-range index.
        let mut prev: Option<(&str, u32)> = None;
        for i in 0..entries {
            let e = fw.entry(i)?;
            if let Some((pn, pl)) = prev {
                if (pn, pl) >= (e.name, e.level) {
                    return Err(FrozenError::InvalidOffset {
                        offset: base + 4 + i * INDEX_ENTRY_LEN,
                        context: "class index order",
                    });
                }
            }
            let _ = fw
                .image
                .slice(section::CLASS_BLOBS, e.blob_off, e.blob_len, "class blob")?;
            prev = Some((e.name, e.level));
        }
        Ok(fw)
    }

    fn entry(&self, i: usize) -> Result<IndexEntry<'_>, FrozenError> {
        let (index, base) = self.image.section(section::CLASS_INDEX)?;
        let at = 4 + i * INDEX_ENTRY_LEN;
        let mut c = Cursor::new(
            index
                .get(at..at + INDEX_ENTRY_LEN)
                .ok_or(FrozenError::UnexpectedEof {
                    offset: base + at,
                    context: "class index entry",
                })?,
            base + at,
        );
        let name_off = c.u64_le("name offset")?;
        let name_len = c.u32_le("name length")?;
        let level = c.u32_le("entry level")?;
        let blob_off = c.u64_le("blob offset")?;
        let blob_len = c.u64_le("blob length")?;
        let raw = self.image.slice(
            section::STR_BYTES,
            name_off,
            u64::from(name_len),
            "class name",
        )?;
        let name =
            std::str::from_utf8(raw).map_err(|_| FrozenError::InvalidUtf8 { offset: base + at })?;
        Ok(IndexEntry {
            name,
            level,
            blob_off,
            blob_len,
        })
    }

    /// The spec fingerprint recorded at compile time.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.image.fingerprint()
    }

    /// Total image size in bytes.
    #[must_use]
    pub fn bytes_len(&self) -> u64 {
        self.image.len() as u64
    }

    /// Whether the image is served by an actual page mapping (vs the
    /// owned-buffer fallback).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.image.is_mapped()
    }

    /// Number of `(level, class)` entries in the class index.
    #[must_use]
    pub fn class_entry_count(&self) -> usize {
        self.entries
    }

    /// Reconstructs the API database from the frozen tables — a single
    /// linear decode, no per-level surface materialization.
    ///
    /// # Errors
    ///
    /// Malformed table payloads yield typed [`FrozenError`]s.
    pub fn database(&self) -> Result<ApiDatabase, FrozenError> {
        let (bytes, base) = self.image.section(section::API_METHODS)?;
        let mut c = Cursor::new(bytes, base);
        let n = c.len("method count")?;
        let mut methods = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let class = c.str("method class")?;
            let name = c.str("method name")?;
            let desc = c.str("method descriptor")?;
            let life = read_life(&mut c)?;
            methods.insert(MethodRef::new(class, name, desc), life);
        }
        let (bytes, base) = self.image.section(section::API_CLASSES)?;
        let mut c = Cursor::new(bytes, base);
        let n = c.len("class count")?;
        let mut classes = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let name = c.str("class name")?;
            let life = read_life(&mut c)?;
            classes.insert(ClassName::new(name), life);
        }
        let (bytes, base) = self.image.section(section::API_SUPERS)?;
        let mut c = Cursor::new(bytes, base);
        let n = c.len("super count")?;
        let mut supers = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let name = c.str("super class name")?;
            let sup = match c.u8("super flag")? {
                0 => None,
                _ => Some(ClassName::new(c.str("super class target")?)),
            };
            supers.insert(ClassName::new(name), sup);
        }
        Ok(ApiDatabase::from_parts(methods, classes, supers))
    }

    /// Reconstructs the permission map from the frozen table.
    ///
    /// # Errors
    ///
    /// Malformed table payloads yield typed [`FrozenError`]s.
    pub fn permission_map(&self) -> Result<PermissionMap, FrozenError> {
        let (bytes, base) = self.image.section(section::PERMISSIONS)?;
        let mut c = Cursor::new(bytes, base);
        let n = c.len("permission entry count")?;
        let mut map = PermissionMap::new();
        for _ in 0..n {
            let class = c.str("permission class")?;
            let name = c.str("permission method")?;
            let desc = c.str("permission descriptor")?;
            let np = c.len("permission count")?;
            let mut ps = Vec::with_capacity(np.min(64));
            for _ in 0..np {
                ps.push(Permission::new(c.str("permission name")?));
            }
            map.insert(MethodRef::new(class, name, desc), ps);
        }
        Ok(map)
    }

    /// The zero-copy SAPK class blob for `(level, name)`, or `None`
    /// when the class has no body at that level.
    ///
    /// # Errors
    ///
    /// Only on index corruption that slipped past attach validation
    /// (never for a well-formed image).
    pub fn lookup(&self, level: ApiLevel, name: &str) -> Result<Option<&[u8]>, FrozenError> {
        let want = (name, u32::from(level.get()));
        let mut lo = 0usize;
        let mut hi = self.entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.entry(mid)?;
            if (e.name, e.level) < want {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.entries {
            let e = self.entry(lo)?;
            if (e.name, e.level) == want {
                return Ok(Some(self.image.slice(
                    section::CLASS_BLOBS,
                    e.blob_off,
                    e.blob_len,
                    "class blob",
                )?));
            }
        }
        Ok(None)
    }

    /// Whether the image has a body for `name` at *any* level — used to
    /// answer "class known but absent at this level" authoritatively.
    ///
    /// # Errors
    ///
    /// Only on index corruption that slipped past attach validation.
    pub fn knows_class(&self, name: &str) -> Result<bool, FrozenError> {
        let mut lo = 0usize;
        let mut hi = self.entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.entry(mid)?;
            if e.name < name {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.entries {
            return Ok(self.entry(lo)?.name == name);
        }
        Ok(false)
    }

    /// Decodes the class body for `(level, name)`.
    ///
    /// # Errors
    ///
    /// Blob decode failures yield [`FrozenError::Codec`].
    pub fn decode_class_at(
        &self,
        level: ApiLevel,
        name: &str,
    ) -> Result<Option<ClassDef>, FrozenError> {
        match self.lookup(level, name)? {
            Some(blob) => Ok(Some(codec::decode_class(blob)?)),
            None => Ok(None),
        }
    }

    /// Visits every `(level, name, blob)` entry — the bulk-preload path
    /// engines use to warm a shared class cache. Identical blobs share
    /// an offset, so `f` receives a stable `blob_off` key it can use to
    /// decode each unique body once.
    ///
    /// # Errors
    ///
    /// Only on index corruption that slipped past attach validation.
    pub fn for_each_class(
        &self,
        mut f: impl FnMut(ApiLevel, &str, u64, &[u8]),
    ) -> Result<(), FrozenError> {
        for i in 0..self.entries {
            let e = self.entry(i)?;
            let blob =
                self.image
                    .slice(section::CLASS_BLOBS, e.blob_off, e.blob_len, "class blob")?;
            f(
                ApiLevel::new(e.level.min(255) as u8),
                e.name,
                e.blob_off,
                blob,
            );
        }
        Ok(())
    }

    /// Attach-time compatibility check against the live spec: refuses
    /// an image compiled from a different framework.
    ///
    /// # Errors
    ///
    /// [`FrozenError::SpecMismatch`] when fingerprints differ.
    pub fn verify_spec(&self, spec: &FrameworkSpec) -> Result<(), FrozenError> {
        let live = spec_fingerprint(spec);
        if live != self.fingerprint() {
            return Err(FrozenError::SpecMismatch {
                image: self.fingerprint(),
                live,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for FrozenFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenFramework")
            .field("bytes", &self.bytes_len())
            .field("class_entries", &self.entries)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

fn read_life(c: &mut Cursor<'_>) -> Result<LifeSpan, FrozenError> {
    let since = ApiLevel::new(c.u8("lifespan since")?);
    let removed = match c.u8("lifespan removed flag")? {
        0 => None,
        _ => Some(ApiLevel::new(c.u8("lifespan removed")?)),
    };
    Ok(LifeSpan { since, removed })
}

/// A [`ClassSource`] view over a frozen image: authoritative for every
/// class the image knows, silent (falling back to the spec) otherwise.
/// Decode failures also fall back rather than fail the scan — after
/// attach-time checksum and bounds validation they indicate a torn
/// file, and the spec still holds the ground truth.
pub struct FrozenClassSource {
    inner: Arc<FrozenFramework>,
}

impl FrozenClassSource {
    /// Wraps an attached image.
    #[must_use]
    pub fn new(inner: Arc<FrozenFramework>) -> Self {
        FrozenClassSource { inner }
    }
}

impl ClassSource for FrozenClassSource {
    fn class_at(&self, level: ApiLevel, name: &ClassName) -> Option<Option<Arc<ClassDef>>> {
        match self.inner.lookup(level, name.as_str()) {
            Ok(Some(blob)) => match codec::decode_class(blob) {
                Ok(def) => Some(Some(Arc::new(def))),
                Err(_) => None,
            },
            Ok(None) => match self.inner.knows_class(name.as_str()) {
                Ok(true) => Some(None),
                _ => None,
            },
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen_curated() -> (AndroidFramework, FrozenFramework) {
        let fw = AndroidFramework::curated();
        let bytes = freeze_framework(&fw);
        let frozen = FrozenFramework::from_bytes(bytes).unwrap();
        (fw, frozen)
    }

    #[test]
    fn freeze_is_deterministic() {
        let fw = AndroidFramework::curated();
        assert_eq!(freeze_framework(&fw), freeze_framework(&fw));
    }

    #[test]
    fn database_round_trips_through_image() {
        let (fw, frozen) = frozen_curated();
        let mined = fw.database();
        let thawed = frozen.database().unwrap();
        assert_eq!(mined.method_count(), thawed.method_count());
        assert_eq!(mined.class_count(), thawed.class_count());
        for (m, life) in mined.methods() {
            assert_eq!(thawed.method_lifespan(m), Some(life), "lifespan of {m:?}");
        }
        for (c, life) in mined.classes() {
            assert_eq!(thawed.class_lifespan(c), Some(life));
        }
        for (c, s) in mined.supers() {
            assert_eq!(thawed.super_class(c), s);
        }
    }

    #[test]
    fn permission_map_round_trips_through_image() {
        let (fw, frozen) = frozen_curated();
        let built = fw.permission_map();
        let thawed = frozen.permission_map().unwrap();
        assert_eq!(built.len(), thawed.len());
        for (m, ps) in built.iter() {
            assert_eq!(thawed.required(m), ps);
        }
    }

    #[test]
    fn class_blobs_decode_to_materialized_definitions() {
        let (fw, frozen) = frozen_curated();
        for class in fw.spec().classes() {
            for level in [ApiLevel::new(2), ApiLevel::new(23), ApiLevel::new(29)] {
                let expected = fw.spec().materialize_class(&class.name, level);
                let got = frozen.decode_class_at(level, class.name.as_str()).unwrap();
                assert_eq!(expected, got, "{} at {level}", class.name.as_str());
            }
        }
    }

    #[test]
    fn lookup_unknown_class_is_none_not_error() {
        let (_, frozen) = frozen_curated();
        assert_eq!(
            frozen.lookup(ApiLevel::new(28), "no.such.Class").unwrap(),
            None
        );
        assert!(!frozen.knows_class("no.such.Class").unwrap());
        assert!(frozen.knows_class("android.app.Activity").unwrap());
    }

    #[test]
    fn spec_mismatch_is_refused() {
        let (_, frozen) = frozen_curated();
        let other = AndroidFramework::with_scale(&saint_adf::SynthConfig::small());
        assert!(matches!(
            frozen.verify_spec(other.spec()),
            Err(FrozenError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn class_source_serves_frozen_bodies() {
        let (fw, frozen) = frozen_curated();
        let source = FrozenClassSource::new(Arc::new(frozen));
        let name = ClassName::new("android.app.Activity");
        let got = source.class_at(ApiLevel::new(28), &name).unwrap().unwrap();
        let expected = fw
            .spec()
            .materialize_class(&name, ApiLevel::new(28))
            .map(Arc::new);
        assert_eq!(Some(got), expected);
        // NotificationChannel exists only since 26: authoritative None below.
        let nc = ClassName::new("android.app.NotificationChannel");
        assert_eq!(source.class_at(ApiLevel::new(25), &nc), Some(None));
        // Unknown names: no opinion.
        assert_eq!(
            source.class_at(ApiLevel::new(25), &ClassName::new("x.Y")),
            None
        );
    }

    #[test]
    fn identical_per_level_blobs_are_deduplicated() {
        let fw = AndroidFramework::curated();
        let bytes = freeze_framework(&fw);
        let frozen = FrozenFramework::from_bytes(bytes.clone()).unwrap();
        // Entries far outnumber unique blobs: most classes are stable
        // across most level transitions.
        let mut unique = std::collections::HashSet::new();
        frozen
            .for_each_class(|_, _, blob_off, _| {
                unique.insert(blob_off);
            })
            .unwrap();
        assert!(
            unique.len() * 2 < frozen.class_entry_count(),
            "dedup ineffective: {} unique of {}",
            unique.len(),
            frozen.class_entry_count()
        );
    }

    #[test]
    fn attach_via_file_maps_pages() {
        let fw = AndroidFramework::curated();
        let bytes = freeze_framework(&fw);
        let path =
            std::env::temp_dir().join(format!("saint-frozen-fw-{}.sfrz", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let frozen = FrozenFramework::open(&path).unwrap();
        assert_eq!(frozen.bytes_len(), bytes.len() as u64);
        assert!(frozen.is_mapped());
        assert!(frozen.verify_spec(fw.spec()).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
