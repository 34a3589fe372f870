//! The wrapper registry: named, versioned, compiled Elog wrappers.
//!
//! The commercial Transformation Server kept a library of deployed
//! wrappers that operators upgraded in place while the service kept
//! running. The registry reproduces that: every `register` call appends a
//! new immutable version (1-based), lookups default to the latest one,
//! and in-flight jobs keep the `Arc` of the version they resolved — an
//! upgrade never mutates a wrapper another thread is executing.
//!
//! Two properties were added for the compile-once architecture:
//!
//! * **Compilation happens at registration.** A [`WrapperSpec`] carries
//!   the Elog source *and* the [`OptimizedPlan`] compiled from it; the
//!   worker pool executes the shared plan
//!   ([`Extractor::from_optimized`](lixto_elog::Extractor::from_optimized))
//!   and never re-walks the AST. Programs that do not compile are rejected
//!   here, once, with a structured [`DeployError`] — not per request.
//! * **Optional durability.** A registry opened with
//!   [`WrapperRegistry::with_spool`] persists every registered version
//!   (source + XML design + limits) to a spool directory and reloads —
//!   recompiling — whatever the spool holds, so a restarted server
//!   resumes with its deployed wrappers.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use lixto_core::XmlDesign;
use lixto_elog::fxhash::FxHasher64;
use lixto_elog::{
    parse_program, CompileError, ConceptRegistry, ElogProgram, ExtractorOptions, OptimizedPlan,
    ParseError, WrapperPlan,
};
use lixto_obs::{warn_event, RuleStats};

use crate::linelog::{escape, percent_encode, unescape, write_atomic};

/// Why a wrapper was rejected at deploy time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The Elog source does not parse.
    Parse(ParseError),
    /// The program parses but does not compile into a plan (unknown
    /// parent pattern, unbound variable, dangling concept, bad regex).
    Compile(CompileError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Parse(e) => write!(f, "parse error: {e}"),
            DeployError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Everything needed to execute one wrapper: the compiled plan, its
/// source, the XML output design, and the extraction environment.
#[derive(Clone)]
pub struct WrapperSpec {
    /// The Elog source the plan was compiled from (persisted by the
    /// spool; re-deployable as-is).
    pub source: String,
    /// The compiled and optimized execution plan (rule schedule, fused
    /// path automata, hoist groups — see [`lixto_elog::optimize`]),
    /// built once at deploy time and shared with every in-flight job;
    /// [`OptimizedPlan::plan`] is the underlying [`WrapperPlan`].
    pub optimized: Arc<OptimizedPlan>,
    /// Mapping from the instance base to the output XML document.
    pub design: XmlDesign,
    /// Concept predicates the plan was compiled against. Private on
    /// purpose: execution reads the matchers *baked into the plan*, so
    /// replacing this field without recompiling would silently desync
    /// behavior from [`plan_id`](WrapperSpec::plan_id) — go through
    /// [`with_concepts`](WrapperSpec::with_concepts), which recompiles.
    concepts: ConceptRegistry,
    /// Safety limits for the extraction fixpoint.
    pub options: ExtractorOptions,
}

impl WrapperSpec {
    /// Compile a program (with built-in concepts and default limits).
    /// The stored source is the program's canonical pretty-printed form.
    pub fn new(program: ElogProgram, design: XmlDesign) -> Result<WrapperSpec, DeployError> {
        let (concepts, options) = (ConceptRegistry::builtin(), ExtractorOptions::default());
        WrapperSpec::build(program.to_string(), program, design, concepts, options)
    }

    /// Parse and compile `source` Elog text into a spec. The spec keeps
    /// the text: pass a `String` the caller no longer needs to hand it
    /// over without a copy.
    pub fn from_source(
        source: impl Into<String>,
        design: XmlDesign,
    ) -> Result<WrapperSpec, DeployError> {
        let source = source.into();
        let program = parse_program(&source).map_err(DeployError::Parse)?;
        let (concepts, options) = (ConceptRegistry::builtin(), ExtractorOptions::default());
        WrapperSpec::build(source, program, design, concepts, options)
    }

    /// Compile and optimize `program` against `concepts` into a spec.
    fn build(
        source: String,
        program: ElogProgram,
        design: XmlDesign,
        concepts: ConceptRegistry,
        options: ExtractorOptions,
    ) -> Result<WrapperSpec, DeployError> {
        let plan = WrapperPlan::compile(program, &concepts).map_err(DeployError::Compile)?;
        Ok(WrapperSpec {
            source,
            optimized: Arc::new(OptimizedPlan::new(Arc::new(plan))),
            design,
            concepts,
            options,
        })
    }

    /// Replace the concept registry. Concepts are baked into the plan at
    /// compile time, so this recompiles — and can now fail, e.g. when
    /// the program references a concept the new registry lacks.
    pub fn with_concepts(self, concepts: ConceptRegistry) -> Result<Self, DeployError> {
        let program = self.optimized.plan().program().clone();
        WrapperSpec::build(self.source, program, self.design, concepts, self.options)
    }

    /// Replace the safety limits.
    pub fn with_options(mut self, options: ExtractorOptions) -> Self {
        self.options = options;
        self
    }

    /// The concept registry the plan was compiled against.
    pub fn concepts(&self) -> &ConceptRegistry {
        &self.concepts
    }

    /// Fingerprint of the wrapper's full semantic identity: canonical
    /// program text, output design, concept definitions, and limits.
    /// Anything that can change an extraction's result changes the
    /// fingerprint; a byte-for-byte redeploy keeps it — this is what the
    /// result cache keys on (see [`CacheKey`](crate::CacheKey)).
    ///
    /// The id is [`fxhash64`](crate::fxhash64) of one canonical text: the
    /// printed program, `\u{1e}`, the root label, `\u{1f}` before each
    /// distinct auxiliary pattern in sorted order, `\u{1e}`,
    /// `pattern\u{1f}label\u{1f}` per label override in pattern order,
    /// `\u{1e}`, the concept registry's
    /// [`fingerprint`](ConceptRegistry::fingerprint), and
    /// `\u{1e}{max_documents}|{max_instances}`. The text is hashed as it
    /// is written and never built.
    pub fn plan_id(&self) -> u64 {
        let mut h = FxHasher64::default();
        self.write_canonical(&mut h).expect("hashing never fails");
        h.finish()
    }

    /// Write the canonical text [`plan_id`](WrapperSpec::plan_id) hashes.
    fn write_canonical(&self, w: &mut impl Write) -> fmt::Result {
        write!(
            w,
            "{}\u{1e}{}",
            self.optimized.plan().program(),
            self.design.root_label
        )?;
        let mut aux: Vec<&str> = self
            .design
            .auxiliary_patterns()
            .iter()
            .map(String::as_str)
            .collect();
        aux.sort_unstable();
        aux.dedup();
        for a in aux {
            write!(w, "\u{1f}{a}")?;
        }
        w.write_str("\u{1e}")?;
        for (pattern, label) in self.design.label_overrides() {
            write!(w, "{pattern}\u{1f}{label}\u{1f}")?;
        }
        let options = &self.options;
        write!(
            w,
            "\u{1e}{}\u{1e}{}|{}",
            self.concepts.fingerprint(),
            options.max_documents,
            options.max_instances
        )
    }
}

/// One registered, immutable wrapper version.
pub struct RegisteredWrapper {
    /// The wrapper's registry name.
    pub name: String,
    /// 1-based version, assigned at registration.
    pub version: u32,
    /// Semantic fingerprint of the spec ([`WrapperSpec::plan_id`]) —
    /// the wrapper identity the result cache keys on.
    pub plan_id: u64,
    /// The executable spec.
    pub spec: WrapperSpec,
    /// Per-rule execution counters for this version, shared with every
    /// in-flight job (the executor records into it through an
    /// [`ExecProbe`](lixto_elog::ExecProbe)). Rule `i` is labeled with
    /// its target pattern name; the `/debug/wrappers/{name}` endpoint
    /// and the `lixto_rule_*` Prometheus series read snapshots of it.
    pub telemetry: Arc<RuleStats>,
}

/// Thread-safe name → versions map shared by clients and worker shards.
#[derive(Default)]
pub struct WrapperRegistry {
    inner: RwLock<HashMap<String, Vec<Arc<RegisteredWrapper>>>>,
    /// When set, every registered version is persisted here and a fresh
    /// registry opened on the same directory reloads them.
    spool: Option<PathBuf>,
}

impl WrapperRegistry {
    /// An empty, in-memory registry.
    pub fn new() -> WrapperRegistry {
        WrapperRegistry::default()
    }

    /// A durable registry spooling to `dir`: existing wrapper manifests
    /// in `dir` are reloaded (and recompiled) immediately, and every
    /// subsequent [`register`](WrapperRegistry::register) writes one.
    /// Reloaded wrappers get built-in concepts; custom concept
    /// registries are not persisted.
    ///
    /// # Spool format
    ///
    /// One file per registered version, named
    /// `{encoded-name}@{version}.wrapper`, where the encoded name keeps
    /// `[A-Za-z0-9_-]` and percent-encodes every other byte (the `name=`
    /// header inside the file carries the authoritative name). Each file
    /// is written whole through a tmp file and a rename, never appended
    /// to, and is line-oriented UTF-8:
    ///
    /// ```text
    /// lixto-wrapper v1          magic first line
    /// name=<escaped>
    /// root=<escaped>
    /// auxiliary=<escaped>       zero or more
    /// label=<escaped>\t<escaped>  zero or more pattern→label overrides
    /// max_documents=<n>
    /// max_instances=<n>
    /// program:
    /// <raw Elog source, possibly many lines>
    /// end-program
    /// version=<n>
    /// end
    /// ```
    ///
    /// Header values use the durability directory's shared escaping
    /// convention (the crate's `linelog` module) — `\\`, `\n`, `\r`,
    /// `\t` backslash-escaped, everything else verbatim — so names,
    /// labels and roots may contain any Unicode including tabs and
    /// newlines.
    ///
    /// # Recovery
    ///
    /// A manifest that no longer *parses* (truncated before its `end`
    /// line, hand-edited, wrong magic) is **skipped with a
    /// structured `spool_manifest_corrupt` warning** — one bad file
    /// must not keep a server with dozens of
    /// healthy wrappers from starting. A manifest that parses but whose
    /// Elog source no longer *compiles* is still a hard
    /// [`InvalidData`](io::ErrorKind::InvalidData) error: that means
    /// the engine and the spool disagree about the language, which an
    /// operator must resolve rather than silently dropping a deployed
    /// wrapper.
    pub fn with_spool(dir: impl Into<PathBuf>) -> io::Result<WrapperRegistry> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let registry = WrapperRegistry {
            inner: RwLock::new(HashMap::new()),
            spool: Some(dir.clone()),
        };
        // Collect manifests and register them in (name, version) order,
        // so reassigned version numbers reproduce the spooled ones.
        let mut manifests: Vec<(PathBuf, SpoolManifest)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wrapper") {
                continue;
            }
            let text = fs::read(&path)?;
            match std::str::from_utf8(&text)
                .map_err(|e| e.to_string())
                .and_then(parse_manifest)
            {
                Ok(manifest) => manifests.push((path, manifest)),
                Err(e) => warn_event!(
                    "spool_manifest_corrupt",
                    "path" => path.display().to_string(),
                    "error" => &e,
                ),
            }
        }
        manifests.sort_by(|(_, a), (_, b)| (&a.name, a.version).cmp(&(&b.name, b.version)));
        for (path, m) in manifests {
            let spec = WrapperSpec::from_source(m.source, m.design)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "spooled wrapper {:?} v{} no longer compiles: {e}",
                            m.name, m.version
                        ),
                    )
                })?
                .with_options(m.options);
            let wrapper = registry.register_in_memory(&m.name, spec);
            // A dense spool reloads with its recorded numbering and the
            // manifest on disk is already correct. A gap (e.g. a past
            // spool-write failure) makes append-registration assign a
            // lower number: rewrite the manifest under the new version
            // so disk and memory agree — otherwise a later register()
            // of the same name would clobber the old file and lose the
            // wrapper on the restart after that.
            if wrapper.version != m.version {
                write_manifest(&dir, &wrapper)?;
                fs::remove_file(&path)?;
            }
        }
        Ok(registry)
    }

    /// The spool directory, when this registry is durable.
    pub fn spool_dir(&self) -> Option<&Path> {
        self.spool.as_deref()
    }

    fn register_in_memory(&self, name: &str, spec: WrapperSpec) -> Arc<RegisteredWrapper> {
        let plan_id = spec.plan_id();
        // Telemetry slots are indexed by the plan's dense rule ids and
        // labeled with each rule's target pattern.
        let plan = spec.optimized.plan();
        let labels = plan
            .rules()
            .iter()
            .map(|r| plan.patterns()[r.pattern as usize].clone())
            .collect();
        let mut inner = self.inner.write().expect("registry poisoned");
        let versions = inner.entry(name.to_string()).or_default();
        let wrapper = Arc::new(RegisteredWrapper {
            name: name.to_string(),
            version: versions.len() as u32 + 1,
            plan_id,
            spec,
            telemetry: Arc::new(RuleStats::new(labels)),
        });
        versions.push(wrapper.clone());
        wrapper
    }

    /// Register a new version of `name`; returns the assigned version.
    /// On a durable registry the version is also spooled to disk
    /// (best-effort: a write failure keeps the in-memory registration
    /// and logs a `spool_write_failed` warning).
    pub fn register(&self, name: &str, spec: WrapperSpec) -> u32 {
        let wrapper = self.register_in_memory(name, spec);
        if let Some(dir) = &self.spool {
            if let Err(e) = write_manifest(dir, &wrapper) {
                warn_event!(
                    "spool_write_failed",
                    "wrapper" => name,
                    "version" => wrapper.version,
                    "error" => e.to_string(),
                );
            }
        }
        wrapper.version
    }

    /// Compile `source` and register it; returns the assigned version.
    pub fn register_source(
        &self,
        name: &str,
        source: &str,
        design: XmlDesign,
    ) -> Result<u32, DeployError> {
        Ok(self.register(name, WrapperSpec::from_source(source, design)?))
    }

    /// The latest version of `name`.
    pub fn latest(&self, name: &str) -> Option<Arc<RegisteredWrapper>> {
        let inner = self.inner.read().expect("registry poisoned");
        inner.get(name).and_then(|v| v.last()).cloned()
    }

    /// A specific version of `name`.
    pub fn version(&self, name: &str, version: u32) -> Option<Arc<RegisteredWrapper>> {
        let inner = self.inner.read().expect("registry poisoned");
        inner
            .get(name)?
            .get(version.checked_sub(1)? as usize)
            .cloned()
    }

    /// The deployed catalog: every registered name with its latest
    /// version, name-sorted. Versions are dense and 1-based, so the
    /// latest version doubles as the version count — this is the listing
    /// the HTTP gateway's `GET /wrappers` endpoint serves.
    pub fn catalog(&self) -> Vec<(String, u32)> {
        let inner = self.inner.read().expect("registry poisoned");
        let mut entries: Vec<(String, u32)> = inner
            .iter()
            .map(|(name, versions)| (name.clone(), versions.len() as u32))
            .collect();
        entries.sort();
        entries
    }

    /// Registered wrapper names, sorted.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.read().expect("registry poisoned");
        let mut names: Vec<String> = inner.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Spool manifests: a line-oriented header (escaped values) followed by
// the raw Elog source. Versioned with a magic first line.

const MANIFEST_MAGIC: &str = "lixto-wrapper v1";

struct SpoolManifest {
    name: String,
    version: u32,
    design: XmlDesign,
    options: ExtractorOptions,
    source: String,
}

/// Write `wrapper`'s manifest whole, in the format
/// [`WrapperRegistry::with_spool`] documents.
fn write_manifest(dir: &Path, wrapper: &RegisteredWrapper) -> io::Result<()> {
    let (spec, version) = (&wrapper.spec, wrapper.version);
    let mut out = String::new();
    out.push_str(MANIFEST_MAGIC);
    out.push('\n');
    out.push_str(&format!("name={}\n", escape(&wrapper.name)));
    out.push_str(&format!("root={}\n", escape(&spec.design.root_label)));
    for aux in spec.design.auxiliary_patterns() {
        out.push_str(&format!("auxiliary={}\n", escape(aux)));
    }
    for (pattern, label) in spec.design.label_overrides() {
        out.push_str(&format!("label={}\t{}\n", escape(pattern), escape(label)));
    }
    out.push_str(&format!("max_documents={}\n", spec.options.max_documents));
    out.push_str(&format!("max_instances={}\n", spec.options.max_instances));
    out.push_str("program:\n");
    out.push_str(&spec.source);
    if !spec.source.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&format!("end-program\nversion={version}\nend\n"));
    let file = format!("{}@{version}.wrapper", percent_encode(&wrapper.name));
    write_atomic(&dir.join(file), out.as_bytes())
}

fn parse_manifest(text: &str) -> Result<SpoolManifest, String> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(format!("missing magic {MANIFEST_MAGIC:?}"));
    }
    let mut name = None;
    let mut version = None;
    let mut design = XmlDesign::new();
    let mut options = ExtractorOptions::default();
    let mut source = String::new();
    // A manifest is whole only up to its `end` line: a file cut short by
    // a crash must not load under a shorter version number.
    loop {
        let line = lines.next().ok_or("missing end line")?;
        if line == "end" {
            break;
        }
        let Some((key, value)) = line.split_once(&[':', '='][..]) else {
            return Err(format!("bad header line {line:?}"));
        };
        match key {
            "name" => name = Some(unescape(value)?),
            "version" => version = Some(value.parse::<u32>().map_err(|e| e.to_string())?),
            "root" => design = design.root(&unescape(value)?),
            "auxiliary" => design = design.auxiliary(&unescape(value)?),
            "label" => {
                let (pattern, label) = value
                    .split_once('\t')
                    .ok_or_else(|| format!("bad label line {line:?}"))?;
                design = design.label(&unescape(pattern)?, &unescape(label)?);
            }
            "max_documents" => {
                options.max_documents = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "max_instances" => {
                options.max_instances = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "program" => loop {
                let line = lines.next().ok_or("unterminated program section")?;
                if line == "end-program" {
                    break;
                }
                source.push_str(line);
                source.push('\n');
            },
            other => return Err(format!("unknown header key {other:?}")),
        }
    }
    Ok(SpoolManifest {
        name: name.ok_or("missing name")?,
        version: version.ok_or("missing version")?,
        design,
        options,
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WRAPPER: &str = r#"item(S, X) :- document("http://x/", S), subelem(S, (?.li, []), X)."#;

    #[test]
    fn versions_are_appended_and_latest_wins() {
        let reg = WrapperRegistry::new();
        let v1 = reg
            .register_source("shop", WRAPPER, XmlDesign::new().root("v1"))
            .unwrap();
        let v2 = reg
            .register_source("shop", WRAPPER, XmlDesign::new().root("v2"))
            .unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(reg.latest("shop").unwrap().version, 2);
        assert_eq!(reg.latest("shop").unwrap().spec.design.root_label, "v2");
        assert_eq!(reg.version("shop", 1).unwrap().spec.design.root_label, "v1");
        assert!(reg.version("shop", 3).is_none());
        assert!(reg.version("shop", 0).is_none());
        assert!(reg.latest("unknown").is_none());
        assert_eq!(reg.names(), vec!["shop".to_string()]);
    }

    #[test]
    fn catalog_lists_names_with_latest_versions() {
        let reg = WrapperRegistry::new();
        assert!(reg.catalog().is_empty());
        reg.register_source("zeta", WRAPPER, XmlDesign::new())
            .unwrap();
        reg.register_source("alpha", WRAPPER, XmlDesign::new())
            .unwrap();
        reg.register_source("alpha", WRAPPER, XmlDesign::new())
            .unwrap();
        assert_eq!(
            reg.catalog(),
            vec![("alpha".to_string(), 2), ("zeta".to_string(), 1)]
        );
    }

    #[test]
    fn bad_source_is_rejected() {
        let reg = WrapperRegistry::new();
        let err = reg
            .register_source("bad", "not elog at all (", XmlDesign::new())
            .unwrap_err();
        assert!(matches!(err, DeployError::Parse(_)));
        assert!(reg.is_empty());
    }

    #[test]
    fn uncompilable_source_is_rejected_with_the_compile_error() {
        let reg = WrapperRegistry::new();
        let err = reg
            .register_source(
                "bad",
                r#"x(S, X) :- ghost(_, S), subelem(S, (?.td, []), X)."#,
                XmlDesign::new(),
            )
            .unwrap_err();
        let DeployError::Compile(compile) = err else {
            panic!("expected a compile error, got {err:?}");
        };
        assert_eq!(compile.code(), "unknown_parent_pattern");
        assert!(reg.is_empty());
    }

    #[test]
    fn plan_identity_tracks_semantics_not_version() {
        let reg = WrapperRegistry::new();
        reg.register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        reg.register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        reg.register_source("shop", WRAPPER, XmlDesign::new().root("changed"))
            .unwrap();
        let v1 = reg.version("shop", 1).unwrap();
        let v2 = reg.version("shop", 2).unwrap();
        let v3 = reg.version("shop", 3).unwrap();
        assert_eq!(
            v1.plan_id, v2.plan_id,
            "identical redeploys share the plan identity"
        );
        assert_ne!(v1.plan_id, v3.plan_id, "a design change must re-key");
        let relimited = reg
            .latest("shop")
            .unwrap()
            .spec
            .clone()
            .with_options(ExtractorOptions {
                max_documents: 1,
                max_instances: 10,
            });
        assert_ne!(relimited.plan_id(), v3.plan_id, "limits are semantic too");
    }

    fn temp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lixto-spool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spool_round_trips_wrappers_across_restart() {
        let dir = temp_spool("roundtrip");
        {
            let reg = WrapperRegistry::with_spool(&dir).unwrap();
            reg.register_source(
                "shop",
                WRAPPER,
                XmlDesign::new()
                    .root("v1")
                    .auxiliary("aux")
                    .label("item", "it"),
            )
            .unwrap();
            reg.register_source("shop", WRAPPER, XmlDesign::new().root("v2"))
                .unwrap();
            let spec = WrapperSpec::from_source(WRAPPER, XmlDesign::new().root("limited"))
                .unwrap()
                .with_options(ExtractorOptions {
                    max_documents: 7,
                    max_instances: 99,
                });
            reg.register("other", spec);
        }
        // "Restart": a fresh registry on the same spool resumes with the
        // same catalog, versions, designs, limits and plan identities.
        let first = WrapperRegistry::with_spool(&dir).unwrap();
        assert_eq!(
            first.catalog(),
            vec![("other".to_string(), 1), ("shop".to_string(), 2)]
        );
        assert_eq!(
            first.version("shop", 1).unwrap().spec.design.root_label,
            "v1"
        );
        assert!(first
            .version("shop", 1)
            .unwrap()
            .spec
            .design
            .is_auxiliary("aux"));
        assert_eq!(
            first
                .version("shop", 1)
                .unwrap()
                .spec
                .design
                .label_of("item"),
            "it"
        );
        assert_eq!(first.latest("shop").unwrap().spec.design.root_label, "v2");
        let other = first.latest("other").unwrap();
        assert_eq!(other.spec.options.max_documents, 7);
        assert_eq!(other.spec.options.max_instances, 99);
        assert_eq!(other.spec.source.trim_end(), WRAPPER);
        // Reload is a recompile of the same semantics: plan ids stable.
        let reloaded_again = WrapperRegistry::with_spool(&dir).unwrap();
        assert_eq!(
            reloaded_again.latest("other").unwrap().plan_id,
            other.plan_id
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spool_gap_renumbers_files_instead_of_clobbering_later() {
        let dir = temp_spool("gap");
        {
            let reg = WrapperRegistry::with_spool(&dir).unwrap();
            for root in ["v1", "v2", "v3"] {
                reg.register_source("shop", WRAPPER, XmlDesign::new().root(root))
                    .unwrap();
            }
        }
        // Simulate a historical spool-write failure: v2's manifest is gone.
        fs::remove_file(dir.join("shop@2.wrapper")).unwrap();
        {
            let reg = WrapperRegistry::with_spool(&dir).unwrap();
            // v3 reloads as version 2 — and its manifest is renumbered on
            // disk so a later register() cannot clobber it.
            assert_eq!(reg.latest("shop").unwrap().version, 2);
            assert_eq!(reg.latest("shop").unwrap().spec.design.root_label, "v3");
            assert!(dir.join("shop@2.wrapper").exists());
            assert!(!dir.join("shop@3.wrapper").exists());
            reg.register_source("shop", WRAPPER, XmlDesign::new().root("v4"))
                .unwrap();
        }
        let reg = WrapperRegistry::with_spool(&dir).unwrap();
        assert_eq!(reg.latest("shop").unwrap().version, 3);
        assert_eq!(reg.latest("shop").unwrap().spec.design.root_label, "v4");
        assert_eq!(reg.version("shop", 2).unwrap().spec.design.root_label, "v3");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spool_escapes_awkward_names_and_labels() {
        let dir = temp_spool("escape");
        {
            let reg = WrapperRegistry::with_spool(&dir).unwrap();
            reg.register_source(
                "weird name/v=1",
                WRAPPER,
                XmlDesign::new().root("line\nbreak\ttab\\slash"),
            )
            .unwrap();
        }
        let reloaded = WrapperRegistry::with_spool(&dir).unwrap();
        let w = reloaded.latest("weird name/v=1").expect("reloaded");
        assert_eq!(w.spec.design.root_label, "line\nbreak\ttab\\slash");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifests_are_skipped_not_fatal() {
        let dir = temp_spool("corrupt");
        {
            let reg = WrapperRegistry::with_spool(&dir).unwrap();
            reg.register_source("good", WRAPPER, XmlDesign::new().root("ok"))
                .unwrap();
        }
        // Three flavors of corruption a crash or stray editor can leave:
        // wrong magic, truncation mid-header, truncation mid-program.
        fs::write(dir.join("bad-magic@1.wrapper"), "not a manifest\n").unwrap();
        fs::write(dir.join("truncated@1.wrapper"), "lixto-wrapper v1\nname=t").unwrap();
        fs::write(
            dir.join("unterminated@1.wrapper"),
            "lixto-wrapper v1\nname=u\nprogram:\nitem(S, X) :- docum",
        )
        .unwrap();
        let reg = WrapperRegistry::with_spool(&dir).expect("corruption must not be fatal");
        assert_eq!(reg.catalog(), vec![("good".to_string(), 1)]);
        assert_eq!(reg.latest("good").unwrap().spec.design.root_label, "ok");
        // The corrupt files are left in place for the operator to inspect.
        assert!(dir.join("bad-magic@1.wrapper").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_registry_leaves_no_spool() {
        let reg = WrapperRegistry::new();
        assert!(reg.spool_dir().is_none());
        reg.register_source("shop", WRAPPER, XmlDesign::new())
            .unwrap();
    }
}
