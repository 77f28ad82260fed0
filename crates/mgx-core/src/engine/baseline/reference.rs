//! An independent reference model of the baseline's cached metadata walk,
//! written from the paper's rules alone (§III-A and §VI-A of arXiv
//! 2004.09679; GuardNN evaluates against the same baseline). It shares no
//! code with [`BaselineEngine`], `BaselineLayout` or `CacheSim`: no closed
//! form, no batching, one scalar step per metadata access.
//!
//! The rules:
//!
//! * every 64 B data line has an 8 B VN and an 8 B MAC, eight to a 64 B
//!   metadata line; a split-counter VN line instead holds one minor per
//!   data line of a 4 KB group;
//! * the VN lines are the leaves of an `arity`-ary tree whose levels are
//!   laid out one after another, level `k` shifted by a further `13 × k`
//!   lines; the single node of the top level sits under the on-chip root;
//! * VNs, tree nodes and fine MACs share one LRU, write-back,
//!   write-allocate cache, modelled as a plain recency list per set;
//! * for each data line in ascending order, the VN line is accessed; a
//!   miss climbs the tree, accessing each ancestor until one hits or the
//!   top is reached; then the fine MAC line is accessed;
//! * a dirty eviction is written back and updates its parent (a VN line's
//!   level-0 node, a node's parent; a MAC line has none) through the
//!   cache, which may evict again;
//! * under split counters, a write bumps the line's minor; the write that
//!   brings it to 127 bumps the major, and the whole 4 KB group is read
//!   and written back right after that line's metadata accesses.

use super::BaselineEngine;
use crate::engine::{LineBurst, MetaTraffic, ProtectionEngine, TxnKind};
use crate::policy::ProtectionConfig;
use mgx_cache::CacheStats;
use mgx_trace::{DataClass, Dir, MemRequest, RegionMap, TraceSource};

const LINE: u64 = 64;
/// The metadata carve-outs, above the protected data.
const VN_TABLE: u64 = 1 << 40;
const TREE_POOL: u64 = 1 << 41;
const MAC_TABLE: u64 = 1 << 42;
const COARSE_MACS: u64 = 1 << 43;
/// 8 B entries per 64 B metadata line.
const PER_LINE: u64 = 8;
/// Data lines per split-counter VN line (a 4 KB group).
const SC_GROUP: u64 = 64;
/// A minor counter overflows on the write that brings it here.
const SC_MINOR_MAX: u8 = 127;

fn kind_of(addr: u64) -> TxnKind {
    match addr {
        a if a >= MAC_TABLE => TxnKind::Mac,
        a if a >= TREE_POOL => TxnKind::Tree,
        a if a >= VN_TABLE => TxnKind::Vn,
        _ => TxnKind::Data,
    }
}

/// The tree's node addresses, level by level.
struct Tree {
    arity: u64,
    /// Per level: its first node, in lines from `TREE_POOL`, and its width.
    levels: Vec<(u64, u64)>,
}

impl Tree {
    fn new(leaves: u64, arity: u64) -> Tree {
        let mut levels = Vec::new();
        let (mut width, mut below) = (leaves, 0);
        loop {
            width = width.div_ceil(arity);
            let k = levels.len() as u64;
            levels.push((below + 13 * k * (k + 1) / 2, width));
            below += width;
            if width == 1 {
                return Tree { arity, levels };
            }
        }
    }

    fn node(&self, level: usize, idx: u64) -> u64 {
        TREE_POOL + (self.levels[level].0 + idx) * LINE
    }

    /// The level and index of a node address.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let at = (addr - TREE_POOL) / LINE;
        let level = self
            .levels
            .iter()
            .position(|&(start, width)| (start..start + width).contains(&at))
            .expect("a tree node address");
        (level, at - self.levels[level].0)
    }

    /// The line a dirty eviction of `addr` must update, if any.
    fn parent(&self, addr: u64) -> Option<u64> {
        match kind_of(addr) {
            TxnKind::Vn => Some(self.node(0, (addr - VN_TABLE) / LINE / self.arity)),
            TxnKind::Tree => {
                let (level, idx) = self.locate(addr);
                (level + 1 < self.levels.len()).then(|| self.node(level + 1, idx / self.arity))
            }
            _ => None,
        }
    }
}

#[derive(Clone, Copy)]
struct Resident {
    line: u64,
    dirty: bool,
    /// The way the line was filled into: a fill takes the set's next free
    /// way, else its victim's. Only the flush order reads it.
    way: usize,
}

/// Per set, its resident lines from least to most recently used.
struct Lru {
    ways: usize,
    sets: Vec<Vec<Resident>>,
    stats: CacheStats,
}

impl Lru {
    fn new(bytes: u64, ways: usize) -> Lru {
        let sets = (bytes / LINE) as usize / ways;
        Lru { ways, sets: vec![Vec::new(); sets], stats: CacheStats::default() }
    }

    /// Returns whether `line` hit, and the dirty line it evicted, if any.
    fn access(&mut self, line: u64, write: bool) -> (bool, Option<u64>) {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line / LINE % n) as usize];
        if let Some(pos) = set.iter().position(|r| r.line == line) {
            let mut r = set.remove(pos);
            r.dirty |= write;
            set.push(r);
            self.stats.hits += 1;
            return (true, None);
        }
        self.stats.misses += 1;
        let (way, victim) = if set.len() < self.ways {
            (set.len(), None)
        } else {
            let v = set.remove(0);
            (v.way, v.dirty.then_some(v.line))
        };
        set.push(Resident { line, dirty: write, way });
        self.stats.writebacks += victim.is_some() as u64;
        (false, victim)
    }

    /// Empties the cache, returning its dirty lines set by set, way by way.
    fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in &mut self.sets {
            set.sort_by_key(|r| r.way);
            dirty.extend(set.drain(..).filter(|r| r.dirty).map(|r| r.line));
        }
        self.stats.writebacks += dirty.len() as u64;
        dirty
    }
}

/// The reference walk of one of the three baseline engines.
struct Reference {
    tree: Tree,
    cache: Lru,
    fine_macs: bool,
    /// Minor counters per 4 KB group, under split counters.
    minors: Option<std::collections::HashMap<u64, u8>>,
    traffic: MetaTraffic,
    out: Vec<LineBurst>,
    /// Climbs that reached the top level, and parent updates made by
    /// dirty evictions: the tests require both paths to run.
    top_climbs: u64,
    parent_updates: u64,
}

impl Reference {
    fn new(cfg: &ProtectionConfig, fine_macs: bool, split: bool) -> Reference {
        let data_per_leaf = if split { SC_GROUP * LINE } else { PER_LINE * LINE };
        Reference {
            tree: Tree::new(cfg.protected_bytes.div_ceil(data_per_leaf), cfg.tree_arity),
            cache: Lru::new(cfg.metadata_cache_bytes, 8),
            fine_macs,
            minors: split.then(Default::default),
            traffic: MetaTraffic::default(),
            out: Vec::new(),
            top_climbs: 0,
            parent_updates: 0,
        }
    }

    fn emit(&mut self, addr: u64, dir: Dir, kind: TxnKind) {
        self.out.push(LineBurst { addr, lines: 1, dir, kind });
        let t = match kind {
            TxnKind::Data => &mut self.traffic.data,
            TxnKind::Vn => &mut self.traffic.vn,
            TxnKind::Tree => &mut self.traffic.tree,
            TxnKind::Mac => &mut self.traffic.mac,
        };
        t.add(dir, LINE);
    }

    /// One cached access; returns whether it hit.
    fn access(&mut self, line: u64, dir: Dir) -> bool {
        let (hit, victim) = self.cache.access(line, dir == Dir::Write);
        if !hit {
            self.emit(line, Dir::Read, kind_of(line));
        }
        let mut victim = victim;
        // The paper bounds a cascade by the tree depth; a few steps of
        // slack stop LRU ping-pong between unrelated dirty lines.
        let mut updates = self.tree.levels.len() + 4;
        while let Some(evicted) = victim.take() {
            self.emit(evicted, Dir::Write, kind_of(evicted));
            if updates == 0 {
                break;
            }
            updates -= 1;
            if let Some(parent) = self.tree.parent(evicted) {
                self.parent_updates += 1;
                let (hit, next) = self.cache.access(parent, true);
                if !hit {
                    self.emit(parent, Dir::Read, TxnKind::Tree);
                }
                victim = next;
            }
        }
        hit
    }

    fn request(&mut self, req: &MemRequest) {
        let (first, last) = (req.addr / LINE, (req.end() - 1) / LINE);
        self.traffic.data.add(req.dir, (last - first + 1) * LINE);
        for line in first..=last {
            let overflow = req.dir == Dir::Write && self.bump_minor(line);
            let leaf = if self.minors.is_some() { line / SC_GROUP } else { line / PER_LINE };
            if !self.access(VN_TABLE + leaf * LINE, req.dir) {
                let (mut level, mut idx) = (0, leaf / self.tree.arity);
                while !self.access(self.tree.node(level, idx), req.dir) {
                    if level + 1 == self.tree.levels.len() {
                        self.top_climbs += 1;
                        break;
                    }
                    (level, idx) = (level + 1, idx / self.tree.arity);
                }
            }
            if self.fine_macs {
                self.access(MAC_TABLE + line / PER_LINE * LINE, req.dir);
            }
            if overflow {
                let group = line / SC_GROUP * SC_GROUP;
                for data in group..group + SC_GROUP {
                    self.emit(data * LINE, Dir::Read, TxnKind::Vn);
                    self.emit(data * LINE, Dir::Write, TxnKind::Vn);
                }
            }
        }
    }

    fn bump_minor(&mut self, line: u64) -> bool {
        let Some(minors) = &mut self.minors else { return false };
        let minor = minors.entry(line).or_insert(0);
        *minor += 1;
        if *minor < SC_MINOR_MAX {
            return false;
        }
        let group = line / SC_GROUP * SC_GROUP;
        for sibling in group..group + SC_GROUP {
            minors.remove(&sibling);
        }
        true
    }

    fn flush(&mut self) {
        for line in self.cache.flush() {
            self.emit(line, Dir::Write, kind_of(line));
        }
    }
}

/// Feeds `requests` to the engine `name` and to its reference model, and
/// compares the walk's bursts request by request, then the flush, the
/// traffic counters and the cache statistics. Returns the model.
fn check(
    name: &str,
    cfg: &ProtectionConfig,
    regions: &RegionMap,
    requests: impl IntoIterator<Item = MemRequest>,
) -> Reference {
    let (mut engine, mut model) = match name {
        "fine_mac" => (BaselineEngine::fine_mac(cfg), Reference::new(cfg, true, false)),
        "coarse_mac" => {
            (BaselineEngine::coarse_mac(regions, cfg), Reference::new(cfg, false, false))
        }
        "split_counter" => (BaselineEngine::split_counter(cfg), Reference::new(cfg, true, true)),
        _ => unreachable!("{name}"),
    };
    let mut got = Vec::new();
    // Data bursts and coarse MACs follow the request, not the walk; the
    // model takes the coarse MACs' bytes from the engine.
    let keep = |b: LineBurst, got: &mut Vec<LineBurst>, traffic: &mut MetaTraffic| {
        if b.kind == TxnKind::Mac && b.addr >= COARSE_MACS {
            traffic.mac.add(b.dir, b.bytes());
        } else if b.kind != TxnKind::Data {
            got.push(b);
        }
    };
    for (i, req) in requests.into_iter().enumerate() {
        engine.expand_bursts(&req, &mut |b| keep(b, &mut got, &mut model.traffic));
        model.request(&req);
        assert!(got == model.out, "{name}: request {i} ({req:?}) walked differently");
        got.clear();
        model.out.clear();
    }
    engine.flush(&mut |b| keep(b, &mut got, &mut model.traffic));
    model.flush();
    assert!(got == model.out, "{name}: the flush differs");
    assert_eq!(engine.traffic(), model.traffic, "{name}: traffic");
    assert_eq!(engine.cache.stats(), model.cache.stats, "{name}: cache statistics");
    model
}

const ENGINES: [&str; 3] = ["fine_mac", "coarse_mac", "split_counter"];

/// Random reads and writes over 8 MiB behind a one-set and a four-set
/// cache, under 8-ary and 4-ary trees, so climbs reach the top and
/// dirty evictions cascade. Every other request writes across the 4 KB
/// boundary at 4 KiB, so split-counter minors overflow there.
#[test]
fn walk_matches_reference_on_random_requests() {
    let mut paths = [(0, 0); ENGINES.len()];
    for (cache_bytes, arity) in [(512, 8), (2048, 8), (512, 4)] {
        let cfg = ProtectionConfig {
            protected_bytes: 8 << 20,
            metadata_cache_bytes: cache_bytes,
            tree_arity: arity,
            ..ProtectionConfig::default()
        };
        let mut regions = RegionMap::new();
        let region = regions.alloc("all", cfg.protected_bytes, DataClass::Feature);
        let requests = |seed: u64| {
            let mut x = seed;
            (0..1000u64).map(move |i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let lines = 1 + (x >> 33) % 40;
                if i % 2 == 0 {
                    return MemRequest::write(region, 4096 - 64, lines * 64);
                }
                let addr = (x >> 20) % ((8 << 20) / 64 - lines) * 64;
                let bytes = lines * 64 - (x >> 8) % 64;
                match x & 1 {
                    0 => MemRequest::read(region, addr, bytes),
                    _ => MemRequest::write(region, addr, bytes),
                }
            })
        };
        for (name, paths) in ENGINES.into_iter().zip(&mut paths) {
            let model = check(name, &cfg, &regions, requests(cache_bytes ^ arity));
            paths.0 += model.top_climbs;
            paths.1 += model.parent_updates;
        }
    }
    for (name, (top_climbs, parent_updates)) in ENGINES.into_iter().zip(paths) {
        assert!(top_climbs >= 100, "{name}: {top_climbs} climbs reached the top");
        assert!(parent_updates >= 1000, "{name}: {parent_updates} parent updates");
    }
}

/// The first `lines` data lines' worth of a real trace's requests.
fn prefix(source: impl TraceSource, lines: u64) -> (RegionMap, Vec<MemRequest>) {
    let (regions, phases) = source.into_stream();
    let mut left = lines;
    let requests = phases
        .flat_map(|p| p.requests)
        .take_while(|r| {
            let n = r.bytes.div_ceil(LINE);
            left = left.saturating_sub(n);
            left > 0
        })
        .collect();
    (regions, requests)
}

/// Short prefixes of three real traces under the paper's configuration:
/// AlexNet batch-1 inference, one PageRank iteration on a small R-MAT
/// graph, and LLM decode steps.
#[test]
fn walk_matches_reference_on_real_trace_prefixes() {
    use mgx_scalesim::{ArrayConfig, Dataflow};
    let cfg = ProtectionConfig::default();
    let alexnet = mgx_dnn::trace::stream_inference_trace(
        &mgx_dnn::Model::alexnet(1),
        &ArrayConfig::edge(),
        Dataflow::WeightStationary,
    );
    let graph = mgx_graph::rmat::RmatGenerator::social(14, 5).generate(200_000);
    let pagerank = mgx_graph::stream_graph_trace(
        &graph,
        mgx_graph::GraphWorkload::PageRank { iters: 1 },
        &mgx_graph::GraphAccelConfig {
            dst_block: 1 << 12,
            src_tile: 1 << 12,
            ..Default::default()
        },
    );
    let decode = mgx_transformer::stream_decode_trace(
        &mgx_transformer::TransformerConfig::gpt_small(),
        &mgx_transformer::InferenceRequest::new(1, 32, 2),
        &ArrayConfig::cloud().with_dtype_bytes(2),
    );
    let traces = [
        ("alexnet", prefix(alexnet, 60_000)),
        ("pagerank", prefix(pagerank, 60_000)),
        ("decode", prefix(decode, 60_000)),
    ];
    for (trace, (regions, requests)) in &traces {
        assert!(requests.len() > 20, "{trace}: {} requests", requests.len());
        for name in ENGINES {
            let model = check(name, &cfg, regions, requests.iter().copied());
            assert!(model.parent_updates > 0, "{trace}/{name}: no dirty eviction");
        }
    }
}

/// The model's own tree matches the hand-derived layout of a 1 GiB,
/// 8-ary tree (levels of 256 Ki, 32 Ki, 4 Ki, 512, 64, 8 and 1 nodes).
#[test]
fn reference_tree_levels() {
    let tree = Tree::new((1 << 30) / 512, 8);
    let widths: Vec<u64> = tree.levels.iter().map(|l| l.1).collect();
    assert_eq!(widths, [1 << 18, 1 << 15, 1 << 12, 512, 64, 8, 1]);
    assert_eq!(tree.levels[2].0, (1 << 18) + (1 << 15) + 13 * 3);
    let top = tree.node(6, 0);
    assert_eq!(tree.locate(top), (6, 0));
    assert_eq!(tree.parent(top), None);
    assert_eq!(tree.parent(VN_TABLE + 9 * LINE), Some(tree.node(0, 1)));
}
