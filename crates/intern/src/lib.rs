//! # nt-intern — the identifier arena of the NetTrails data plane.
//!
//! Every vertex, edge, firing and query hop in the system is keyed by a node
//! address and/or a rule/relation name. Carrying those as `String`s means a
//! clone and a re-hash on every hot-path operation; this crate interns them
//! once into a process-global arena and hands out fixed-width handles:
//!
//! * [`NodeId`] — an interned network address (node / AS name);
//! * [`Sym`] — an interned rule or relation name.
//!
//! Both are 4-byte `Copy` handles into the same append-only string pool.
//! Design points:
//!
//! * **Equality and hashing** use the `u32` id (one string ⇒ one id), so a
//!   handle is one word to [`IdHasher`], the hasher of every product map
//!   ([`IdMap`], [`IdSet`]): an `IdMap<(TupleId, NodeId), _>` probe folds two
//!   words, one multiply each.
//! * **Ordering** compares the *resolved strings*, so `BTreeMap` iteration
//!   order, sorted reports and test expectations are identical to the old
//!   `String`-keyed code and independent of interning order.
//! * **Serialization** writes the string, never the raw id: snapshots stay
//!   self-describing and can be reloaded by a process with a differently
//!   populated pool. What shipping fixed-width ids costs a receiver that has
//!   never seen the strings is modelled by [`Dictionary`], which states the
//!   discipline every wire of the system follows.
//! * Interned strings are leaked (`&'static str`): the set of node and rule
//!   names in a deployment is small and bounded, which is exactly the case
//!   dictionary encoding is designed for.
//!
//! [`codec`] is the binary encoding built on the handles: a frame carries its
//! own name table and every handle in it is an index into that table.
//!
//! The crate also owns both hashers, which do two different jobs:
//!
//! * [`StableHasher`] makes *identities* — runtime tuple ids, provenance
//!   rule-execution ids ([`rule_exec_digest`]), shard routes: FNV-1a, byte by
//!   byte, the same in every process, so every layer derives identifiers from
//!   one implementation and interned vs. string inputs cannot silently
//!   diverge.
//! * [`IdHasher`] *probes maps*: one multiply per word, keyed per process.
//!   What it returns is never stored, shipped or compared across processes.

pub mod codec;

use codec::{Decode, DecodeError, Encode, Reader, Writer};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

// ---------------------------------------------------------------------------
// the global pool
// ---------------------------------------------------------------------------

struct Pool {
    strings: Vec<&'static str>,
    index: IdMap<&'static str, u32>,
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        RwLock::new(Pool {
            strings: Vec::new(),
            index: IdMap::default(),
        })
    })
}

fn intern(s: &str) -> u32 {
    if let Some(id) = pool().read().expect("interner lock").index.get(s) {
        return *id;
    }
    let mut p = pool().write().expect("interner lock");
    if let Some(id) = p.index.get(s) {
        return *id;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    let id = u32::try_from(p.strings.len()).expect("interner overflow");
    p.strings.push(leaked);
    p.index.insert(leaked, id);
    id
}

thread_local! {
    /// Per-thread id → string cache. Interned strings are immutable and
    /// leaked and ids are assigned once, so a cached entry can never go
    /// stale — after the first resolution of an id on a thread, `as_str` is
    /// lock-free. This matters for shard-parallel provenance maintenance:
    /// worker threads resolve names in every digest, and a shared
    /// `RwLock::read` on that path serializes them on one cache line.
    static RESOLVED: RefCell<Vec<Option<&'static str>>> = const { RefCell::new(Vec::new()) };
}

fn resolve(id: u32) -> &'static str {
    let idx = id as usize;
    RESOLVED.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(Some(s)) = cache.get(idx) {
            return *s;
        }
        let s = pool().read().expect("interner lock").strings[idx];
        if cache.len() <= idx {
            cache.resize(idx + 1, None);
        }
        cache[idx] = Some(s);
        s
    })
}

/// Facade over the process-global intern pool.
pub struct Interner;

impl Interner {
    /// Number of distinct strings interned so far.
    pub fn len() -> usize {
        pool().read().expect("interner lock").strings.len()
    }
}

/// A sender's memory of the names one destination has been sent.
///
/// **The dictionary discipline.** Everything NetTrails ships between nodes —
/// protocol deltas (`DeltaBatch`) and provenance query frames (`QueryBatch`)
/// — carries names as fixed-width handles ([`Sym::WIRE_SIZE`] bytes each)
/// plus a dictionary header: the strings behind the handles the destination
/// has not been sent before. A sender keeps one `Dictionary` per
/// destination; for every record it ships it walks the record's names once
/// (a tuple's walk is `nt_runtime::Tuple::visit_names`) and puts a name in
/// the frame's header exactly when [`Dictionary::first_use`] says so; the
/// header is priced by [`dict_wire_size`]. So a name costs its string once
/// per (sender, destination) and four bytes ever after, and a receiver that
/// adds each frame's header to what it knows, in delivery order, can decode
/// every record it is handed. Forgetting is the sender's to decide and always
/// whole: [`Dictionary::clear`] re-ships everything (a benchmark resetting
/// between configurations). The order of entries inside one header belongs
/// to the wire (first use for `DeltaBatch`, sorted for `QueryBatch`); which
/// entries it holds is decided here and nowhere else. (Log-store records
/// need no memory: each encoded frame carries the strings of the names it
/// uses in its own name table, see [`codec`].)
///
/// The memory is a set of handles: node and rule/relation handles index one
/// pool (one string, one handle), so that is exactly a set of strings. It is
/// asked once per name of every record shipped, so it is a bitmap over pool
/// indexes — a shift and a mask per question, one bit per name the process
/// has interned up to the highest one sent.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    sent: Vec<u64>,
}

impl Dictionary {
    /// True exactly the first time `name` is asked about since the memory
    /// was created or cleared: the caller ships the string with this frame.
    pub fn first_use(&mut self, name: Sym) -> bool {
        let (word, bit) = ((name.0 / 64) as usize, 1u64 << (name.0 % 64));
        if word >= self.sent.len() {
            self.sent.resize(word + 1, 0);
        }
        let first = self.sent[word] & bit == 0;
        self.sent[word] |= bit;
        first
    }

    /// Forget everything: the destination is treated as new.
    pub fn clear(&mut self) {
        self.sent.clear();
    }
}

/// The names a snapshot refers to, sorted, in serializable form. Handles
/// serialize as strings, so nothing depends on raw id values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InternerSnapshot {
    /// Dictionary entries, sorted.
    pub strings: Vec<String>,
}

impl InternerSnapshot {
    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// The dictionary's strings are names: each is an index into the frame's
/// name table, which already holds it once the snapshot's contents named it.
impl Encode for InternerSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.strings.len());
        for s in &self.strings {
            w.name(s);
        }
    }
}

impl Decode for InternerSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut strings = Vec::with_capacity(n);
        for _ in 0..n {
            strings.push(r.name()?.to_string());
        }
        Ok(InternerSnapshot { strings })
    }
}

/// The wire cost of one dictionary entry: a 4-byte id plus a length-prefixed
/// string. The single pricing rule for every dictionary in the system.
pub fn dict_entry_wire_size(s: &str) -> usize {
    4 + 4 + s.len()
}

/// The wire cost of a dictionary header: its entries at
/// [`dict_entry_wire_size`] each, whether held as strings or as handles.
pub fn dict_wire_size<S: AsRef<str>>(dict: &[S]) -> usize {
    dict.iter().map(|s| dict_entry_wire_size(s.as_ref())).sum()
}

// ---------------------------------------------------------------------------
// handle types
// ---------------------------------------------------------------------------

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Eq)]
        pub struct $name(u32);

        impl $name {
            /// Intern a string and return its handle.
            pub fn new(s: &str) -> Self {
                $name(intern(s))
            }

            /// The interned string.
            pub fn as_str(self) -> &'static str {
                resolve(self.0)
            }

            /// The raw pool index (for dense per-run arenas; never serialize
            /// this — ids are not stable across processes).
            pub fn index(self) -> u32 {
                self.0
            }

            /// Reconstruct a handle from a raw pool index previously obtained
            /// via [`Self::index`] *in this process*. Returns `None` when the
            /// index was never handed out — the columnar store uses this to
            /// decode dictionary columns without trusting the codes blindly.
            pub fn from_index(raw: u32) -> Option<Self> {
                if (raw as usize) < Interner::len() {
                    Some($name(raw))
                } else {
                    None
                }
            }

            /// Resolve a string to its handle **without interning it**:
            /// `None` when the string has never been interned. Probe paths
            /// use this so looking up a value that cannot exist does not
            /// grow the process-global pool as a side effect.
            pub fn lookup(s: &str) -> Option<Self> {
                pool()
                    .read()
                    .expect("interner lock")
                    .index
                    .get(s)
                    .map(|id| $name(*id))
            }

            /// Fixed wire width of the handle in the interned encoding.
            pub const WIRE_SIZE: usize = 4;
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }

        impl Default for $name {
            /// The empty name (a placeholder, never a real node/rule).
            fn default() -> Self {
                $name::new("")
            }
        }

        impl std::hash::Hash for $name {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                state.write_u32(self.0);
            }
        }

        // String order, so sorted containers and reports behave exactly like
        // the String-keyed code this replaces (and Ord is consistent with Eq:
        // equal ids ⇔ equal strings).
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0 == other.0 {
                    std::cmp::Ordering::Equal
                } else {
                    self.as_str().cmp(other.as_str())
                }
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl std::ops::Deref for $name {
            type Target = str;
            fn deref(&self) -> &str {
                self.as_str()
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }

        // NOTE: deliberately NO `Borrow<str>` impl. `Hash` uses the pool
        // index (not the string bytes), so a str-keyed lookup into a
        // handle-keyed `IdMap` would hash differently and silently miss.
        // Lookups by name must intern first: `map.get(&Sym::new(name))`.

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }

        impl From<&$name> for $name {
            fn from(h: &$name) -> Self {
                *h
            }
        }

        impl From<&String> for $name {
            fn from(s: &String) -> Self {
                $name::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(&s)
            }
        }

        impl From<$name> for String {
            fn from(h: $name) -> String {
                h.as_str().to_string()
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                self.as_str() == other
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.as_str() == *other
            }
        }

        impl PartialEq<String> for $name {
            fn eq(&self, other: &String) -> bool {
                self.as_str() == other.as_str()
            }
        }

        impl PartialEq<$name> for str {
            fn eq(&self, other: &$name) -> bool {
                self == other.as_str()
            }
        }

        impl PartialEq<$name> for &str {
            fn eq(&self, other: &$name) -> bool {
                *self == other.as_str()
            }
        }

        impl PartialEq<$name> for String {
            fn eq(&self, other: &$name) -> bool {
                self.as_str() == other.as_str()
            }
        }

        impl Serialize for $name {
            fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                self.as_str().serialize(serializer)
            }
        }

        impl Deserialize for $name {
            fn deserialize<'de, D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                Ok($name::new(&String::deserialize(d)?))
            }
        }
    };
}

handle_type! {
    /// An interned network address (node name / AS name). Equality and
    /// hashing cost one integer compare; `Ord` follows the string.
    NodeId
}

handle_type! {
    /// An interned rule or relation name.
    Sym
}

impl NodeId {
    /// View the address as a relation-name handle (both live in one pool).
    pub fn as_sym(self) -> Sym {
        Sym(self.0)
    }
}

impl Sym {
    /// View the symbol as an address handle (both live in one pool).
    pub fn as_node(self) -> NodeId {
        NodeId(self.0)
    }
}

// ---------------------------------------------------------------------------
// stable digests
// ---------------------------------------------------------------------------

/// A small, dependency-free FNV-1a 64-bit hasher with stable output.
///
/// Provenance vertex identifiers must be identical across nodes, runs and
/// platforms, so the system never uses
/// `std::collections::hash_map::DefaultHasher` (whose algorithm is
/// unspecified) for content addressing.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Create a hasher with the standard FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorb a byte.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    /// Absorb a u64 (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorb a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The single implementation of shard routing: map an interned node to one of
/// `shards` home shards by a stable hash of its *name*.
///
/// Every layer that partitions work by node — the runtime's firing stream
/// tags, the provenance shard router — calls this function, so a node can
/// never be homed to different shards by different layers. The hash covers
/// the resolved string (never the intern id), making placement identical
/// across processes and independent of interning order.
pub fn shard_route(node: NodeId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = StableHasher::new();
    h.write_str(node.as_str());
    (h.finish() % shards as u64) as usize
}

/// The single implementation of the rule-execution digest: a stable hash of
/// the rule name, the executing node and the input tuple identifiers.
///
/// Both the provenance layer's `RuleExecId::compute` (interned inputs) and
/// any string-keyed caller go through this function, so the two encodings
/// cannot drift apart. The digest hashes the *strings*, never the intern ids,
/// and is therefore identical on every node and across runs.
pub fn rule_exec_digest<I>(rule: &str, node: &str, inputs: I) -> u64
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: ExactSizeIterator,
{
    let inputs = inputs.into_iter();
    let mut h = StableHasher::new();
    h.write_str(rule);
    h.write_str(node);
    h.write_u64(inputs.len() as u64);
    for i in inputs {
        h.write_u64(i);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// map hashing
// ---------------------------------------------------------------------------

/// The hasher of every product hash map and set ([`IdMap`], [`IdSet`]).
///
/// The keys those maps hold are identities already: tuple and rule-execution
/// ids are 64-bit digests, [`NodeId`] and [`Sym`] dense `u32` handles. A probe
/// only needs their bits spread over the bucket index (the low bits) and
/// hashbrown's control byte (the top seven). So each word written is folded
/// into the state with one 64×64→128-bit multiply, keeping the XOR of the
/// product's two halves: both ends of the result depend on every bit of the
/// word. Byte strings go in as 8-byte words, the last one zero-padded, then
/// their length.
///
/// The state starts at a key drawn once per process from std's
/// `RandomState`. Iteration order therefore differs between processes, as it
/// does under std's SipHash, and no output may depend on it; identities that
/// must agree across processes come from [`StableHasher`]. The key moves
/// collisions from process to process, but one multiply is no defence against
/// an adversary choosing keys: these maps hold ids the program derived.
#[derive(Debug, Clone)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    /// 2^64 / φ, odd: the multiplier of Fibonacci hashing.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(Self::MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Default for IdHasher {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0));
        IdHasher { state: key }
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` probed through [`IdHasher`]: what every product map is. Make
/// one with `IdMap::default()` or
/// `IdMap::with_capacity_and_hasher(n, Default::default())`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` probed through [`IdHasher`]: what every product set is.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_equality_is_by_content() {
        let a = NodeId::new("n1");
        let b = NodeId::from("n1".to_string());
        let c = NodeId::new("n2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "n1");
        assert_eq!(a, *"n1");
        assert!("n1" == a);
    }

    #[test]
    fn ordering_follows_the_string_not_the_intern_order() {
        // Intern in reverse lexicographic order on purpose.
        let z = Sym::new("zeta-order");
        let a = Sym::new("alpha-order");
        assert!(a < z, "Ord compares strings, not pool indices");
        let mut v = [z, a];
        v.sort();
        assert_eq!(v[0].as_str(), "alpha-order");
    }

    #[test]
    fn deref_makes_handles_act_like_strs() {
        let s = Sym::new("__out::cost");
        assert!(s.starts_with("__out::"));
        assert_eq!(s.strip_prefix("__out::"), Some("cost"));
        assert_eq!(s.len(), 11);
        assert_eq!(format!("{s}"), "__out::cost");
    }

    #[test]
    fn snapshot_round_trips_and_prices_the_dictionary() {
        let snap = InternerSnapshot {
            strings: vec!["link".to_string(), "snapshot-node".to_string()],
        };
        assert_eq!(snap.len(), 2);
        assert_eq!(dict_wire_size(&snap.strings), (8 + 4) + (8 + 13));
        let back: InternerSnapshot =
            serde::from_content(serde::to_content(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert!(InternerSnapshot::default().is_empty());
    }

    #[test]
    fn a_dictionary_ships_a_name_once_until_it_is_cleared() {
        let mut to_n2 = Dictionary::default();
        let mut to_n3 = Dictionary::default();
        let link = Sym::new("dict-link");
        assert!(to_n2.first_use(link));
        assert!(!to_n2.first_use(link), "second use ships four bytes only");
        // A node and a relation spelled alike are one string, one entry.
        assert!(!to_n2.first_use(NodeId::new("dict-link").as_sym()));
        assert!(to_n3.first_use(link), "memory is per destination");
        to_n2.clear();
        assert!(to_n2.first_use(link), "a cleared destination is new");
        assert!(!to_n3.first_use(link));
    }

    #[test]
    fn serde_uses_strings_not_ids() {
        let n = NodeId::new("serde-node");
        let content = serde::to_content(&n).unwrap();
        assert_eq!(content.as_str(), Some("serde-node"));
        let back: NodeId = serde::from_content(content).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn shard_route_is_stable_and_name_based() {
        let n = NodeId::new("route-node");
        // Single shard always routes home 0, any shard count is in range and
        // deterministic across calls (the hash covers the name, not the id).
        assert_eq!(shard_route(n, 0), 0);
        assert_eq!(shard_route(n, 1), 0);
        for shards in [2usize, 4, 8, 13] {
            let s = shard_route(n, shards);
            assert!(s < shards);
            assert_eq!(s, shard_route(NodeId::new("route-node"), shards));
        }
        // A reasonable spread: 64 nodes over 4 shards never collapse into one.
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[shard_route(NodeId::new(&format!("spread{i}")), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 shards receive nodes");
        // Absolute pins: placement is part of the cross-shard record counts
        // every sharded run reports, so a change to the hash must fail here.
        for (name, shards, home) in [("n1", 4, 2), ("n17", 8, 4), ("route-node", 4, 3)] {
            assert_eq!(shard_route(NodeId::new(name), shards), home, "{name}");
        }
    }

    #[test]
    fn rule_exec_digest_is_stable_and_input_sensitive() {
        let d1 = rule_exec_digest("r1", "n1", [1, 2]);
        let d2 = rule_exec_digest("r1", "n1", [1, 2]);
        let d3 = rule_exec_digest("r1", "n1", [2, 1]);
        let d4 = rule_exec_digest("r1", "n2", [1, 2]);
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(d1, d4);
    }
}
