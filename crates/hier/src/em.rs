//! The unified Poisson link-generation model and its EM inference.
//!
//! Every observed link weight `e^{x,y}_{i,j}` is modeled as a Poisson sum
//! over subtopic contributions (eq. 3.8):
//!
//! ```text
//! e ~ Pois( M θ_{x,y} [ Σ_z ρ_z φ^x_{z,i} φ^y_{z,j} + ρ_0 φ^x_{0,i} φ^y_{t,j} ] )
//! ```
//!
//! The EM updates (eqs. 3.24–3.29) soft-assign each link to subtopics
//! (E-step) and re-estimate the ranking distributions `φ` and topic weights
//! `ρ` (M-step). The background distribution `φ_0` is pinned to the
//! parent-topic importance rather than re-estimated by eq. 3.29 (see
//! [`EmConfig::background`]). Link-type weights `α_{x,y}` are equal,
//! normalized, or learned via eqs. 3.37–3.38 under the geometric-mean
//! constraint of Theorem 3.2.
//!
//! Undirected links are stored once; the model's both-direction duplication
//! is folded into symmetric accumulation (each endpoint receives the link's
//! expected subtopic weight; the asymmetric background term is averaged
//! over the two directions).
//!
//! # Performance architecture
//!
//! The inner loop is `O(|E| · k)` per iteration and sits beneath the
//! hierarchy recursion × BIC k-sweep × restarts × weight rounds, so it is
//! engineered to be memory-bandwidth-bound rather than pointer-chase-bound:
//!
//! * **[`EdgeState`]** flattens the network once — global node ids,
//!   type-pair keys, per-pair totals, and the parent-topic importance —
//!   and is shared across every fit of the same network (`fit_prepared`).
//!   A child topic's state is expanded from its parent's flat links
//!   ([`EdgeState::children`]), never from a network.
//! * **`ParamArena`** stores all parameters in one contiguous buffer with
//!   `φ` laid out node-major interleaved (`φ[x][z][i]` at `node·k + z`
//!   where `node = node_base[x] + i`), so the `z`-loop over one endpoint
//!   reads consecutive memory instead of `k` heap-separated rows.
//! * **Restart lanes.** The cold restarts of one fit run in groups of up
//!   to four, one lane each, in one lane-interleaved arena (lane `r` of
//!   value `j` at `j·R + r`): the E-step reads each link once for every
//!   lane and does each lane's arithmetic in one vector slot. Lanes never
//!   mix, so every lane's bits are those of its restart run alone. Warm
//!   fits and weight rounds are the same kernel at one lane, which is the
//!   plain layout above.
//! * **Ping-pong arenas** (read/write, swapped per iteration) plus a
//!   reused [`lesm_par::ReduceScratch`] keep the parameters and the
//!   accumulator out of the allocator. Only an iteration that computes
//!   the objective allocates: each E-step chunk stashes its `(s, w)`
//!   pairs for the batched `ln` (and the runtime-`k` loop allocates its
//!   small per-chunk rows).
//! * **Objective only where it is read.** The surrogate objective is
//!   computed on every iteration when [`EmConfig::tol`] is positive (the
//!   early-exit check reads it) and otherwise on the last iteration alone
//!   (restart selection and [`EmFit::objective`] read it). The E-step is
//!   compiled twice, with and without the objective, so the common
//!   iteration carries no `ln`, no stash and no runtime flag.
//! * **Early exit** ([`EmConfig::tol`]) stops a run once the surrogate
//!   objective's relative improvement falls below tolerance.
//!
//! All of this preserves the workspace determinism contract: results are
//! bit-identical for any thread count, and bit-identical to the original
//! nested-`Vec` implementation (same chunk layout, same reduction order,
//! same per-edge arithmetic).

use crate::HierError;
use lesm_net::TypedNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;

/// How link-type weights `α_{x,y}` are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightMode {
    /// All types weighted 1 (the basic model of §3.2.1).
    Equal,
    /// `α_{x,y} = 1 / Σ e^{x,y}` — the heuristic normalization compared in
    /// Tables 3.2–3.3 (rescaled to the Theorem 3.2 constraint).
    Normalized,
    /// Learned by eq. 3.37 (re-estimated between EM rounds).
    Learned,
}

/// Prior share of the background topic `ρ_0` at a cold start.
const BACKGROUND_INIT: f64 = 0.2;

/// Upper bound on the background share `ρ_0`: excess mass is
/// redistributed to the subtopics proportionally after each M-step.
const BACKGROUND_CAP: f64 = 0.4;

/// Configuration for [`CathyHinEm::fit`].
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Number of subtopics `k`.
    pub k: usize,
    /// EM iterations per restart (upper bound when `tol > 0`).
    pub iters: usize,
    /// Random restarts (best objective kept; `0` runs one). Restart `r`
    /// is seeded with `seed + r·1313`. Restarts share one edge pass: up to
    /// four run together as the lanes of one E-step, which reads each link
    /// once for all of them, and each lane computes the bits its restart
    /// computes alone. Ties keep the earlier restart.
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether to include the background topic `t/0` (CATHYHIN uses it;
    /// plain CATHY of §3.1 does not). Its share `ρ_0` starts at 0.2 and is
    /// capped at 0.4. Its node distribution `φ_0` is pinned to the
    /// parent-topic importance (normalized weighted degrees) instead of
    /// being re-estimated by eq. 3.29: a free `φ_0` can specialize into a
    /// dominant subtopic and swallow it, while a pinned one keeps the
    /// background a strict global-noise model.
    pub background: bool,
    /// Link-type weight mode.
    pub weights: WeightMode,
    /// Rounds of alternating EM / weight re-estimation when
    /// `weights == Learned`.
    pub weight_rounds: usize,
    /// Worker threads for the per-edge E/M accumulation (`0` = all
    /// available cores). Any value produces bit-identical results — the
    /// edge-chunk layout and reduction order are fixed (see `lesm-par`).
    pub threads: usize,
    /// Relative-improvement convergence tolerance: after each iteration
    /// `n >= 1`, EM stops early when
    /// `|obj_n - obj_{n-1}| <= tol * |obj_{n-1}|`. `0` (the default)
    /// disables the check, always running the full `iters` iterations,
    /// and then only the last iteration computes the objective: a
    /// positive `tol` costs an `ln` per link on every iteration. The
    /// check is deterministic, so early exit never breaks the
    /// thread-count bit-identity contract.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            k: 5,
            iters: 100,
            restarts: 2,
            seed: 42,
            background: true,
            weights: WeightMode::Equal,
            weight_rounds: 3,
            threads: 1,
            tol: 0.0,
        }
    }
}

/// A fitted subtopic decomposition of one topic's network.
///
/// A fit holds the parameters and nothing derived from the links: the
/// full Poisson log-likelihood, which only model selection reads, is
/// computed on demand by [`EmFit::loglik`] from the fit and the
/// [`EdgeState`] it was fitted on.
#[derive(Debug, Clone)]
pub struct EmFit {
    /// Number of subtopics.
    pub k: usize,
    /// `phi[x][z][i]`: ranking distribution of type-`x` nodes in subtopic
    /// `z` (rows sum to 1 per `(x, z)`).
    pub phi: Vec<Vec<Vec<f64>>>,
    /// Whether the fit has the background topic. Its distribution `φ_0`
    /// is pinned to [`EmFit::parent_phi`] (see [`EmConfig::background`]);
    /// without it, `rho[0]` carries only the M-step's smoothing and no
    /// link posterior reads it.
    pub background: bool,
    /// Topic shares: `rho[0]` is the background share, `rho[1..=k]` the
    /// subtopic shares (sums to 1).
    pub rho: Vec<f64>,
    /// Link-type weights actually used, keyed by `tx * T + ty`.
    pub alpha: Vec<f64>,
    /// Type-pair distribution `θ_{x,y}` (same keying).
    pub theta: Vec<f64>,
    /// The surrogate objective `Σ αe ln s` of the run's last E-step, that
    /// is, of the parameters before its final M-step (`-∞` when the run
    /// had no iterations). The paper's auxiliary-function argument (after
    /// eq. 3.17) makes it non-decreasing in the iteration budget; with
    /// [`EmConfig::tol`] set it is the value of the early-exit iteration.
    pub objective: f64,
    /// The parent-topic node importance used by the background term.
    /// Shared (not copied) with the [`EdgeState`] the fit came from.
    pub parent_phi: Arc<Vec<Vec<f64>>>,
}

impl EmFit {
    /// Top `n` nodes of type `x` in subtopic `z` (0-based subtopic index).
    ///
    /// Sorting uses `f64::total_cmp`, so a hypothetical NaN score degrades
    /// to a deterministic ordering instead of a panic (the no-panic
    /// contract in DESIGN.md §10); non-NaN inputs order exactly as before.
    pub fn top_nodes(&self, x: usize, z: usize, n: usize) -> Vec<(u32, f64)> {
        let mut idx: Vec<(u32, f64)> = self.phi[x][z]
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, p))
            .collect();
        idx.sort_by(|a, b| b.1.total_cmp(&a.1));
        idx.truncate(n);
        idx
    }

    /// Posterior subtopic distribution `q` of a single link (E-step formula,
    /// eqs. 3.12–3.13). Index 0 is the background.
    pub fn link_posterior(&self, tx: usize, i: u32, ty: usize, j: u32) -> Vec<f64> {
        let mut q = vec![0.0; self.k + 1];
        self.posterior_into(tx, i as usize, ty, j as usize, &mut q);
        q
    }

    /// Writes the posterior of one link into `q` (length `k + 1`, index 0
    /// the background). The one posterior routine behind
    /// [`EmFit::link_posterior`] and [`EdgeState::children`]: the subtopic
    /// terms are summed in `z` order, then the background term, and the
    /// division by the total happens only when the total is positive.
    fn posterior_into(&self, tx: usize, i: usize, ty: usize, j: usize, q: &mut [f64]) {
        let mut total = 0.0;
        for z in 0..self.k {
            let v = self.rho[z + 1] * self.phi[tx][z][i] * self.phi[ty][z][j];
            q[z + 1] = v;
            total += v;
        }
        q[0] = 0.0;
        if self.background {
            // `φ0 = p`: the average of the two link directions, as the
            // E-step computes it.
            let (pi, pj) = (self.parent_phi[tx][i], self.parent_phi[ty][j]);
            let v = 0.5 * self.rho[0] * (pi * pj + pj * pi);
            q[0] = v;
            total += v;
        }
        if total > 0.0 {
            for v in q.iter_mut() {
                *v /= total;
            }
        }
    }

    /// Full Poisson log-likelihood of the observed links under this fit,
    /// `Σ_e [w_e ln(M θ s_e) - lnΓ(w_e + 1)] - M` over the links with a
    /// positive rate (the BIC input of [`crate::select`]). `state` must
    /// be the flatten the fit was computed on, whose parent importance is
    /// the fit's `φ_0`; `config.threads` only splits the work. The links
    /// are summed in the EM's fixed chunk layout, so the bits depend on
    /// neither the thread count nor the caller.
    pub fn loglik(&self, state: &EdgeState, config: &EmConfig) -> f64 {
        let k = self.k;
        let n_edges = state.num_links();
        let arena = ParamArena::from_fit(self, state);
        let scaled = |e: usize| self.alpha[state.tp[e]] * state.w[e];
        let m_total: f64 = (0..n_edges).map(scaled).sum();
        // Link weights are overwhelmingly small integers, and `ln_gamma` is
        // by far the costliest call in this pass — memoize the integer
        // arguments. Table entries come from the same `ln_gamma`, so the
        // bits match the direct call exactly.
        let ln_gamma_table: Vec<f64> = (0..64).map(|i| ln_gamma(i as f64 + 1.0)).collect();
        let ln_gamma_memo = |w: f64| {
            let wi = w as usize;
            if wi < 63 && wi as f64 == w {
                ln_gamma_table[wi]
            } else {
                ln_gamma(w + 1.0)
            }
        };
        let parent_flat = &state.parent_flat;
        let mut ll = [0.0f64];
        lesm_par::par_buffer_reduce_with(
            &mut lesm_par::ReduceScratch::new(),
            n_edges,
            lesm_par::grain_for_pieces(n_edges, EM_PIECES),
            config.threads,
            lesm_par::WorkHint::items(n_edges, 2 * k + 8),
            &mut ll,
            |range, buf| {
                for e in range {
                    let (ni, nj) = (state.ni[e] as usize, state.nj[e] as usize);
                    let w = scaled(e);
                    let s = arena.link_total(parent_flat, self.background, ni, nj);
                    let lambda = m_total * self.theta[state.tp[e]] * s;
                    if lambda > 0.0 {
                        buf[0] += w * lambda.ln() - ln_gamma_memo(w);
                    }
                }
            },
        );
        -m_total + ll[0]
    }
}

thread_local! {
    /// Per-thread count of [`EdgeState::new`] calls (i.e. network
    /// flattens). Thread-local so concurrently running tests observe only
    /// their own flattens.
    static FLATTEN_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Precomputed per-network edge state, shared across every EM fit of the
/// same network (the BIC k-sweep, restarts, and weight rounds).
///
/// Flattening a [`TypedNetwork`] — global node ids, type-pair keys,
/// per-pair weight/link totals, and the normalized parent-topic importance
/// — is pure per-network work; recomputing it per candidate `k` (as the
/// pre-arena implementation did) wastes both time and allocator traffic.
/// Build one with [`EdgeState::new`] (or, for a child topic, with
/// [`EdgeState::children`] of its parent's) and hand it to
/// [`CathyHinEm::fit_prepared`] as many times as needed.
#[derive(Debug, Clone)]
pub struct EdgeState {
    /// Number of node types.
    t_count: usize,
    /// Nodes per type.
    node_counts: Vec<usize>,
    /// Prefix sums of `node_counts` (global node id = `node_base[x] + i`).
    node_base: Vec<usize>,
    /// Total node count across types.
    total_nodes: usize,
    /// Per-edge global node id of the first endpoint. `u32` halves the
    /// sequential stream the E-step pulls per edge (node ids are bounded
    /// by the `u32` node indices of the network).
    ni: Vec<u32>,
    /// Per-edge global node id of the second endpoint.
    nj: Vec<u32>,
    /// Per-edge type-pair key `tx * T + ty`.
    tp: Vec<usize>,
    /// Per-edge raw link weight.
    w: Vec<f64>,
    /// Total link weight per type pair.
    pair_weight: Vec<f64>,
    /// Link count per type pair.
    pair_links: Vec<usize>,
    /// Parent-topic importance per type (normalized weighted degrees),
    /// in the nested shape [`EmFit`] exposes.
    parent_phi: Arc<Vec<Vec<f64>>>,
    /// The same importance flattened by global node id: the hot loop's
    /// view, and the background `φ_0` of every fit on this state.
    parent_flat: Vec<f64>,
    /// Raw (unnormalized) weighted degrees per type. Kept so
    /// [`EdgeState::append_delta`] can fold delta-network degrees in and
    /// re-derive `parent_phi` without revisiting the base edges.
    degrees: Vec<Vec<f64>>,
}

impl EdgeState {
    /// Flattens `net` into the edge-major arrays the EM loop consumes.
    pub fn new(net: &TypedNetwork) -> Self {
        FLATTEN_CALLS.with(|c| c.set(c.get() + 1));
        let mut state = Self::empty(net.node_counts.clone(), net.num_links());
        state.push_network(net);
        state.finish()
    }

    /// The flattened expected-weight subnetwork (§3.2.1) of every subtopic
    /// of `fit`, a fit on this state (element `z` is subtopic `z`, 0-based),
    /// in one pass over the links: each link's posterior is computed once,
    /// and child `z` keeps the link with weight `w·q_z` when that reaches
    /// `threshold` (§3.2.1 uses 1.0). Children keep this state's node space
    /// and edge order, so each equals the [`EdgeState::new`] of its
    /// subnetwork field for field.
    pub fn children(&self, fit: &EmFit, threshold: f64) -> Vec<EdgeState> {
        let mut children = vec![Self::empty(self.node_counts.clone(), 0); fit.k];
        let mut q = vec![0.0; fit.k + 1];
        for e in 0..self.num_links() {
            let (tx, ty) = (self.tp[e] / self.t_count, self.tp[e] % self.t_count);
            let i = self.ni[e] as usize - self.node_base[tx];
            let j = self.nj[e] as usize - self.node_base[ty];
            fit.posterior_into(tx, i, ty, j, &mut q);
            for (child, &qz) in children.iter_mut().zip(&q[1..]) {
                let ew = self.w[e] * qz;
                if ew >= threshold {
                    child.push(self.ni[e], self.nj[e], self.tp[e], ew);
                }
            }
        }
        children.into_iter().map(Self::finish).collect()
    }

    /// A state over `node_counts` with room for `links` links and none yet;
    /// [`EdgeState::push`] adds them, [`EdgeState::finish`] completes it.
    fn empty(node_counts: Vec<usize>, links: usize) -> Self {
        let (node_base, total_nodes) = node_bases(&node_counts);
        let pairs = node_counts.len() * node_counts.len();
        Self {
            t_count: node_counts.len(),
            node_counts,
            node_base,
            total_nodes,
            ni: Vec::with_capacity(links),
            nj: Vec::with_capacity(links),
            tp: Vec::with_capacity(links),
            w: Vec::with_capacity(links),
            pair_weight: vec![0.0; pairs],
            pair_links: vec![0; pairs],
            parent_phi: Arc::default(),
            parent_flat: Vec::new(),
            degrees: Vec::new(),
        }
    }

    /// Appends `net`'s links in block order, over this state's node space.
    fn push_network(&mut self, net: &TypedNetwork) {
        for blk in &net.blocks {
            let key = blk.tx * self.t_count + blk.ty;
            let (bx, by) = (self.node_base[blk.tx], self.node_base[blk.ty]);
            for &(i, j, w) in &blk.edges {
                self.push((bx + i as usize) as u32, (by + j as usize) as u32, key, w);
            }
        }
    }

    /// Appends one link (global endpoint ids, type-pair key, weight) and
    /// adds it to its pair's totals.
    fn push(&mut self, ni: u32, nj: u32, tp: usize, w: f64) {
        self.ni.push(ni);
        self.nj.push(nj);
        self.tp.push(tp);
        self.w.push(w);
        self.pair_weight[tp] += w;
        self.pair_links[tp] += 1;
    }

    /// Derives the weighted degrees and the parent importance from the
    /// links, summed in edge order. A self-loop adds its weight to its node
    /// once, the rule of [`TypedNetwork::weighted_degrees`], so the state
    /// built from a network's flattened links equals the one built from the
    /// network.
    fn finish(mut self) -> Self {
        let mut degrees = vec![0.0f64; self.total_nodes];
        for e in 0..self.w.len() {
            let (ni, nj, w) = (self.ni[e] as usize, self.nj[e] as usize, self.w[e]);
            degrees[ni] += w;
            if ni != nj {
                degrees[nj] += w;
            }
        }
        self.degrees = (self.node_base.iter().zip(&self.node_counts))
            .map(|(&b, &n)| degrees[b..b + n].to_vec())
            .collect();
        let parent_phi = parent_importance(self.degrees.clone());
        self.parent_flat = parent_phi.concat();
        self.parent_phi = Arc::new(parent_phi);
        self
    }

    /// Appends the edges of a delta network to the flatten **without
    /// rebuilding it**: existing per-edge arrays are remapped to the
    /// enlarged node space in place, delta edges are appended after them,
    /// and the per-pair totals and parent-topic importance are updated
    /// incrementally. The delta must cover the same node types and at
    /// least as many nodes per type (node ids are append-only across an
    /// update, matching the corpus interning contract).
    ///
    /// Edge order after the call is "all base edges, then all delta edges"
    /// — a pure function of the (base, delta) pair, so repeated identical
    /// updates stay bit-deterministic.
    pub fn append_delta(&mut self, delta: &TypedNetwork) -> Result<(), HierError> {
        if delta.num_types() != self.t_count {
            return Err(HierError::InvalidConfig(format!(
                "delta network has {} node types, base flatten has {}",
                delta.num_types(),
                self.t_count
            )));
        }
        for (x, (&new_n, &old_n)) in delta.node_counts.iter().zip(&self.node_counts).enumerate() {
            if new_n < old_n {
                return Err(HierError::InvalidConfig(format!(
                    "delta network shrinks type {x}: {new_n} nodes < base {old_n}"
                )));
            }
        }
        let t_count = self.t_count;
        let (new_base, new_total) = node_bases(&delta.node_counts);
        // Remap existing endpoints: the type of each endpoint is recovered
        // from the edge's type-pair key, the local index from the old base.
        for e in 0..self.w.len() {
            let (tx, ty) = (self.tp[e] / t_count, self.tp[e] % t_count);
            let i = self.ni[e] as usize - self.node_base[tx];
            let j = self.nj[e] as usize - self.node_base[ty];
            self.ni[e] = (new_base[tx] + i) as u32;
            self.nj[e] = (new_base[ty] + j) as u32;
        }
        self.node_base = new_base;
        self.push_network(delta);
        // Fold delta degrees into the raw totals, then re-derive the
        // normalized parent importance for the enlarged node space.
        let delta_deg = delta.weighted_degrees();
        for (x, row) in self.degrees.iter_mut().enumerate() {
            row.resize(delta.node_counts[x], 0.0);
            for (d, &v) in row.iter_mut().zip(&delta_deg[x]) {
                *d += v;
            }
        }
        let parent_phi = parent_importance(self.degrees.clone());
        self.node_counts = delta.node_counts.clone();
        self.total_nodes = new_total;
        self.parent_flat = parent_phi.concat();
        self.parent_phi = Arc::new(parent_phi);
        Ok(())
    }

    /// Number of flattened links.
    pub fn num_links(&self) -> usize {
        self.w.len()
    }

    /// Total link weight.
    pub fn total_weight(&self) -> f64 {
        self.w.iter().sum()
    }

    /// Total node count across all types.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Number of node types.
    pub fn num_types(&self) -> usize {
        self.t_count
    }

    /// How many times [`EdgeState::new`] has run **on this thread** (a
    /// thread-local counter, so concurrent tests don't interfere); states
    /// built by [`EdgeState::children`] are not flattens. Used to assert
    /// that `select_k` flattens its network once and that one hierarchy
    /// construct or update flattens only the root's.
    pub fn flattens_on_this_thread() -> u64 {
        FLATTEN_CALLS.with(|c| c.get())
    }
}

/// The prefix sums of `node_counts` (global node id = `base[x] + i`) and
/// the total node count.
fn node_bases(node_counts: &[usize]) -> (Vec<usize>, usize) {
    let mut base = Vec::with_capacity(node_counts.len());
    let mut total = 0;
    for &n in node_counts {
        base.push(total);
        total += n;
    }
    (base, total)
}

/// Number of edge chunks the E/M accumulation is split into. Fixed (never
/// derived from the thread count) so the floating-point summation grouping
/// — and therefore every EM result — is identical for any parallelism.
const EM_PIECES: usize = 16;

/// Restarts fitted together in one edge pass, one lane each: four f64
/// lanes fill one AVX2 vector.
const LANES: usize = 4;

/// One contiguous parameter buffer: `[ φ | ρ ]` for `lanes` independent
/// fits, lane-interleaved. Lane `r`'s `φ[x][z][i]` lives at
/// `(node * k + z) * lanes + r` where `node = node_base[x] + i`, and its
/// `ρ_z` at `total * k * lanes + z * lanes + r`: value `j` of the one-lane
/// layout is at `j * lanes + r`. The interleaving puts all `k` subtopic
/// values of one node, for every lane, on consecutive memory, which is
/// exactly the access pattern of the per-edge `z`-loop, and each lane's
/// arithmetic one vector slot. Warm fits, weight rounds and everything
/// outside the E-step use one lane, which is the plain node-major layout.
/// `φ0` needs no slot: it is the state's parent importance (or absent
/// without the background).
#[derive(Debug, Clone)]
struct ParamArena {
    k: usize,
    total: usize,
    lanes: usize,
    data: Vec<f64>,
}

impl ParamArena {
    fn new(k: usize, total: usize, lanes: usize) -> Self {
        Self {
            k,
            total,
            lanes,
            data: vec![0.0; (total * k + k + 1) * lanes],
        }
    }

    /// The one-lane arena form of `fit` over `state`'s node space, value
    /// for value (the inverse of `ArenaFit::into_em_fit`).
    fn from_fit(fit: &EmFit, state: &EdgeState) -> Self {
        let k = fit.k;
        let mut arena = Self::new(k, state.total_nodes, 1);
        let (phi, rho) = arena.split_mut();
        for x in 0..state.t_count {
            let base = state.node_base[x];
            for (z, row) in fit.phi[x].iter().enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    phi[(base + i) * k + z] = v;
                }
            }
        }
        rho.copy_from_slice(&fit.rho);
        arena
    }

    /// Lane `r` as a one-lane arena.
    fn lane(&self, r: usize) -> Self {
        Self {
            k: self.k,
            total: self.total,
            lanes: 1,
            data: self
                .data
                .iter()
                .skip(r)
                .step_by(self.lanes)
                .copied()
                .collect(),
        }
    }

    /// Copies lane `r` of `from` (same shape) over this arena's lane `r`.
    fn copy_lane(&mut self, from: &Self, r: usize) {
        let lanes = self.lanes;
        for (to, &v) in self.data[r..]
            .iter_mut()
            .step_by(lanes)
            .zip(from.data[r..].iter().step_by(lanes))
        {
            *to = v;
        }
    }

    /// The Poisson rate share `s` of the link between global nodes `ni`
    /// and `nj` under this one-lane fit: `ρ_z·φ_z(ni)·φ_z(nj)` summed in
    /// `z` order, then, with the background, `0.5·ρ0·(p_i·p_j + p_j·p_i)`
    /// over the parent importance `parent`. The one per-link total behind
    /// [`EmFit::loglik`] and `learn_alpha`.
    #[inline]
    fn link_total(&self, parent: &[f64], background: bool, ni: usize, nj: usize) -> f64 {
        let (k, (phi, rho)) = (self.k, self.split());
        let (a, b) = (&phi[ni * k..ni * k + k], &phi[nj * k..nj * k + k]);
        let mut s = 0.0;
        for z in 0..k {
            s += rho[z + 1] * a[z] * b[z];
        }
        if background {
            s += 0.5 * rho[0] * (parent[ni] * parent[nj] + parent[nj] * parent[ni]);
        }
        s
    }

    /// `(phi, rho)` views.
    #[inline]
    fn split(&self) -> (&[f64], &[f64]) {
        self.data.split_at(self.total * self.k * self.lanes)
    }

    /// Mutable `(phi, rho)` views.
    #[inline]
    fn split_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        self.data.split_at_mut(self.total * self.k * self.lanes)
    }
}

/// A one-lane fit in arena form — what the restart/weight-round machinery
/// passes around. Converted to the public nested [`EmFit`] exactly once,
/// for the winning fit (`ArenaFit::into_em_fit`).
struct ArenaFit {
    arena: ParamArena,
    theta: Vec<f64>,
    objective: f64,
}

impl ArenaFit {
    /// Expands the arena into the nested public shape.
    fn into_em_fit(self, state: &EdgeState, alpha: Vec<f64>, background: bool) -> EmFit {
        debug_assert_eq!(self.arena.lanes, 1);
        let k = self.arena.k;
        let (phi_a, rho_a) = self.arena.split();
        let phi: Vec<Vec<Vec<f64>>> = (0..state.t_count)
            .map(|x| {
                (0..k)
                    .map(|z| {
                        (0..state.node_counts[x])
                            .map(|i| phi_a[(state.node_base[x] + i) * k + z])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        EmFit {
            k,
            phi,
            background,
            rho: rho_a.to_vec(),
            alpha,
            theta: self.theta,
            objective: self.objective,
            parent_phi: Arc::clone(&state.parent_phi),
        }
    }
}

/// The end of one EM pass: every lane's parameters and the objective each
/// lane ended on.
struct LaneRun {
    arena: ParamArena,
    objectives: Vec<f64>,
}

/// Reused per-fit working memory: the reduce chunk buffers and the flat
/// lane-interleaved `[obj | ρ | φ]` accumulator. One of these lives for a
/// whole `fit_prepared` call, so an iteration that skips the objective
/// allocates nothing at k = 4, 5 or 8.
#[derive(Default)]
struct EmScratch {
    reduce: lesm_par::ReduceScratch,
    acc: Vec<f64>,
}

/// CATHYHIN EM fitter. For text-only CATHY (§3.1), run on a single-type
/// network with `background: false`.
///
/// ```
/// use lesm_hier::em::{CathyHinEm, EmConfig, WeightMode};
/// use lesm_net::NetworkBuilder;
///
/// // Two 3-cliques joined by a weak bridge.
/// let mut b = NetworkBuilder::new(vec!["term".into()], vec![6]);
/// for group in [0u32, 3] {
///     for i in group..group + 3 {
///         for j in (i + 1)..group + 3 {
///             b.add(0, i, 0, j, 8.0);
///         }
///     }
/// }
/// b.add(0, 2, 0, 3, 1.0);
/// let net = b.build();
/// let cfg = EmConfig {
///     k: 2, iters: 120, restarts: 3, seed: 7,
///     background: false, weights: WeightMode::Equal,
///     ..EmConfig::default()
/// };
/// let fit = CathyHinEm::fit(&net, &cfg).unwrap();
/// let low_mass: f64 = fit.phi[0][0][..3].iter().sum();
/// assert!(low_mass > 0.9 || low_mass < 0.1, "cliques separate");
/// ```
#[derive(Debug, Default)]
pub struct CathyHinEm;

impl CathyHinEm {
    /// Fits the model to `net` with `config`.
    ///
    /// Thin wrapper over [`CathyHinEm::fit_prepared`]; callers fitting the
    /// same network repeatedly (k-sweeps, weight ablations) should build
    /// one [`EdgeState`] and call `fit_prepared` directly.
    pub fn fit(net: &TypedNetwork, config: &EmConfig) -> Result<EmFit, HierError> {
        Self::fit_prepared(&EdgeState::new(net), config)
    }

    /// Fits the model against a pre-flattened [`EdgeState`].
    pub fn fit_prepared(state: &EdgeState, config: &EmConfig) -> Result<EmFit, HierError> {
        if config.k == 0 {
            return Err(HierError::InvalidConfig("k must be >= 1".into()));
        }
        if state.num_links() == 0 {
            return Err(HierError::EmptyNetwork);
        }
        let t_count = state.t_count;

        // Initial α per mode.
        let mut alpha = initial_alpha(
            &config.weights,
            &state.pair_weight,
            &state.pair_links,
            t_count,
        );

        let mut scratch = EmScratch::default();

        // Phase 1: multi-restart EM under the initial weights; the best
        // objective wins (restart objectives are comparable because the
        // weights are identical).
        let mut best = fit_alpha(state, config, &alpha, None, &mut scratch);
        // Phase 2 (learned weights only): alternate α re-estimation with
        // warm-started EM refinement (eq. 3.37's outer loop), starting from
        // the best equal-weight partition so weight learning refines rather
        // than re-discovers the clustering. The warm fit is moved (not
        // cloned) into the next round.
        if config.weights == WeightMode::Learned {
            for _ in 1..config.weight_rounds.max(1) {
                alpha = learn_alpha(state, &best, config, &mut scratch);
                best = fit_alpha(state, config, &alpha, Some(best), &mut scratch);
            }
        }
        Ok(best.into_em_fit(state, alpha, config.background))
    }

    /// Warm-starts EM from a previous fit of (an earlier version of) the
    /// same network — the incremental-update path. The previous `φ` and
    /// `ρ` seed the arena (`φ0` is the updated network's parent importance,
    /// as in a cold start); nodes that appeared since the previous fit
    /// receive a uniform share and each `(type, subtopic)` row is
    /// renormalized, so new nodes can attract mass from iteration one
    /// (an all-zero row would starve them forever: the M-step numerators
    /// only flow through existing `φ` products). The previous `α` is kept,
    /// rescaled to the Theorem 3.2 constraint under the updated link
    /// counts.
    ///
    /// No RNG is consumed and no restarts run — a warm fit is one
    /// deterministic continuation under the convergence budget in
    /// `config.iters` / `config.tol`, so the same (previous fit, delta)
    /// pair always produces the same bits.
    pub fn fit_warm(
        state: &EdgeState,
        config: &EmConfig,
        prev: &EmFit,
    ) -> Result<EmFit, HierError> {
        if config.k == 0 {
            return Err(HierError::InvalidConfig("k must be >= 1".into()));
        }
        if state.num_links() == 0 {
            return Err(HierError::EmptyNetwork);
        }
        let k = prev.k;
        if config.k != k {
            return Err(HierError::InvalidConfig(format!(
                "warm start requires config.k == previous fit k ({} != {k})",
                config.k
            )));
        }
        let t_count = state.t_count;
        if prev.phi.len() != t_count {
            return Err(HierError::InvalidConfig(format!(
                "previous fit covers {} node types, network has {t_count}",
                prev.phi.len()
            )));
        }
        if prev.rho.len() != k + 1 {
            return Err(HierError::InvalidConfig(format!(
                "previous fit rho has {} entries, expected {}",
                prev.rho.len(),
                k + 1
            )));
        }
        for (x, rows) in prev.phi.iter().enumerate() {
            if rows.len() != k {
                return Err(HierError::InvalidConfig(format!(
                    "previous fit phi[{x}] has {} subtopics, expected {k}",
                    rows.len()
                )));
            }
            for row in rows {
                if row.len() > state.node_counts[x] {
                    return Err(HierError::InvalidConfig(format!(
                        "previous fit knows {} nodes of type {x}, network has only {}",
                        row.len(),
                        state.node_counts[x]
                    )));
                }
            }
        }
        if prev.alpha.len() != t_count * t_count {
            return Err(HierError::InvalidConfig(format!(
                "previous fit alpha has {} entries, expected {}",
                prev.alpha.len(),
                t_count * t_count
            )));
        }

        // Seed the arena from the previous fit.
        let mut arena = ParamArena::new(k, state.total_nodes, 1);
        {
            let (phi, rho) = arena.split_mut();
            for x in 0..t_count {
                let count = state.node_counts[x];
                // Uniform share for nodes the previous fit has not seen.
                let fresh = 1.0 / count as f64;
                for z in 0..k {
                    let row = &prev.phi[x][z];
                    let mut s = 0.0;
                    for i in 0..count {
                        let v = row.get(i).copied().unwrap_or(fresh);
                        phi[(state.node_base[x] + i) * k + z] = v;
                        s += v;
                    }
                    if s > 0.0 {
                        for i in 0..count {
                            phi[(state.node_base[x] + i) * k + z] /= s;
                        }
                    }
                }
            }
            rho.copy_from_slice(&prev.rho);
        }
        let mut alpha = prev.alpha.clone();
        rescale_alpha(&mut alpha, &state.pair_links);
        let mut scratch = EmScratch::default();
        let warm = ArenaFit {
            arena,
            theta: Vec::new(),
            objective: f64::NEG_INFINITY,
        };
        let best = fit_alpha(state, config, &alpha, Some(warm), &mut scratch);
        Ok(best.into_em_fit(state, alpha, config.background))
    }
}

/// Runs EM under one fixed `alpha`: the per-α constants (scaled weights,
/// `θ`) are computed once and shared by every restart. The restarts run in
/// groups of up to [`LANES`] that share one edge pass, one lane each, and
/// the best objective wins in restart order (a later restart only on a
/// strictly greater objective). With `warm`, a single deterministic
/// continuation run is performed instead, reusing the warm fit's arena
/// without copying.
fn fit_alpha(
    state: &EdgeState,
    config: &EmConfig,
    alpha: &[f64],
    warm: Option<ArenaFit>,
    scratch: &mut EmScratch,
) -> ArenaFit {
    let n_edges = state.num_links();
    let t_count = state.t_count;
    // Scaled edge weights, their total, and θ over type pairs.
    let scaled: Vec<f64> = (0..n_edges)
        .map(|e| alpha[state.tp[e]] * state.w[e])
        .collect();
    let m_total: f64 = scaled.iter().sum();
    let mut theta = vec![0.0; t_count * t_count];
    for e in 0..n_edges {
        theta[state.tp[e]] += scaled[e] / m_total;
    }

    if let Some(prev) = warm {
        // Warm-started rounds are deterministic — one run suffices.
        let run = run_em::<1>(state, config, &scaled, &[], Some(prev.arena), scratch);
        return ArenaFit {
            arena: run.arena,
            theta,
            objective: run.objectives[0],
        };
    }
    let restarts = config.restarts.max(1);
    let seeds: Vec<u64> = (0..restarts)
        .map(|r| config.seed.wrapping_add(r as u64 * 1313))
        .collect();
    // The first group holds restart 0, which seeds `best` directly, so no
    // `Option` unwrap is needed to prove a restart ran.
    let (head, rest) = seeds.split_at(restarts.min(LANES));
    let first = run_group(state, config, &scaled, head, scratch);
    let mut best = ArenaFit {
        arena: first.arena.lane(0),
        theta,
        objective: first.objectives[0],
    };
    keep_better(&mut best, &first, 1);
    for group in rest.chunks(LANES) {
        let run = run_group(state, config, &scaled, group, scratch);
        keep_better(&mut best, &run, 0);
    }
    best
}

/// One cold EM pass over the restarts seeded by `seeds` (1 to [`LANES`]),
/// one lane each.
fn run_group(
    state: &EdgeState,
    config: &EmConfig,
    scaled: &[f64],
    seeds: &[u64],
    scratch: &mut EmScratch,
) -> LaneRun {
    match seeds.len() {
        1 => run_em::<1>(state, config, scaled, seeds, None, scratch),
        2 => run_em::<2>(state, config, scaled, seeds, None, scratch),
        3 => run_em::<3>(state, config, scaled, seeds, None, scratch),
        _ => run_em::<LANES>(state, config, scaled, seeds, None, scratch),
    }
}

/// Replaces `best` with each lane of `run` from lane `from` on, in lane
/// order, whose objective is strictly greater.
fn keep_better(best: &mut ArenaFit, run: &LaneRun, from: usize) {
    for (r, &objective) in run.objectives.iter().enumerate().skip(from) {
        if objective > best.objective {
            best.arena = run.arena.lane(r);
            best.objective = objective;
        }
    }
}

fn initial_alpha(
    mode: &WeightMode,
    pair_weight: &[f64],
    pair_links: &[usize],
    t_count: usize,
) -> Vec<f64> {
    let mut alpha = vec![1.0; t_count * t_count];
    if *mode == WeightMode::Normalized {
        for (tp, a) in alpha.iter_mut().enumerate() {
            if pair_weight[tp] > 0.0 {
                *a = 1.0 / pair_weight[tp];
            }
        }
    }
    rescale_alpha(&mut alpha, pair_links);
    alpha
}

/// Rescales α to the Theorem 3.2 constraint `Π α^{n_{x,y}} = 1` so that
/// different weightings are comparable (scale invariance, Lemma 3.1).
fn rescale_alpha(alpha: &mut [f64], pair_links: &[usize]) {
    let mut log_sum = 0.0;
    let mut n_total = 0usize;
    for (tp, &n) in pair_links.iter().enumerate() {
        if n > 0 {
            log_sum += (n as f64) * alpha[tp].max(1e-300).ln();
            n_total += n;
        }
    }
    if n_total == 0 {
        return;
    }
    let scale = (-log_sum / n_total as f64).exp();
    for a in alpha.iter_mut() {
        *a *= scale;
    }
}

/// Read-only inputs of one E-step chunk fill, bundled so the hot loop can
/// live in a free function (closures cannot carry `#[target_feature]`).
/// `phi_c` and `rho_c` are lane-interleaved (see `ParamArena`).
#[derive(Clone, Copy)]
struct EStepCtx<'a> {
    k: usize,
    background: bool,
    /// Whether this E-step also computes the surrogate objective.
    objective: bool,
    state: &'a EdgeState,
    scaled: &'a [f64],
    phi_c: &'a [f64],
    rho_c: &'a [f64],
}

/// Accumulates one edge chunk of the E-step for `R` lanes into `buf`
/// (lane-interleaved layout `[obj | bg | k numerators | φ]`). Dispatches to
/// an AVX2 compilation of the identical loop when the CPU has it: every
/// vectorized operation is an elementwise IEEE mul/add/divide (no fused
/// ops, no reassociated reductions — the posterior total keeps its fixed
/// per-lane grouping, and lanes never mix), so the two paths produce the
/// same bits and the dispatch cannot violate the determinism contract
/// (DESIGN.md §11).
fn estep_fill<const R: usize>(ctx: &EStepCtx<'_>, range: std::ops::Range<usize>, buf: &mut [f64]) {
    if ctx.objective {
        estep_fill_k::<R, true>(ctx, range, buf);
    } else {
        estep_fill_k::<R, false>(ctx, range, buf);
    }
}

/// Picks the loop compiled for `ctx.k`.
fn estep_fill_k<const R: usize, const OBJ: bool>(
    ctx: &EStepCtx<'_>,
    range: std::ops::Range<usize>,
    buf: &mut [f64],
) {
    match ctx.k {
        2 => estep_fill_cpu::<2, R, OBJ>(ctx, range, buf),
        4 => estep_fill_cpu::<4, R, OBJ>(ctx, range, buf),
        5 => estep_fill_cpu::<5, R, OBJ>(ctx, range, buf),
        8 => estep_fill_cpu::<8, R, OBJ>(ctx, range, buf),
        _ => estep_fill_cpu::<0, R, OBJ>(ctx, range, buf),
    }
}

/// Runs the `K` loop compiled for the CPU: the AVX2 build when the CPU has
/// it, the portable one otherwise.
fn estep_fill_cpu<const K: usize, const R: usize, const OBJ: bool>(
    ctx: &EStepCtx<'_>,
    range: std::ops::Range<usize>,
    buf: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { estep_fill_avx2::<K, R, OBJ>(ctx, range, buf) };
        return;
    }
    estep_fill_portable::<K, R, OBJ>(ctx, range, buf);
}

/// The portable loop recompiled with AVX2 enabled — `estep_fill_portable`
/// is `#[inline(always)]`, so its body is re-optimized here with 4-wide
/// vectors. Same operations, same bits, fewer instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn estep_fill_avx2<const K: usize, const R: usize, const OBJ: bool>(
    ctx: &EStepCtx<'_>,
    range: std::ops::Range<usize>,
    buf: &mut [f64],
) {
    estep_fill_portable::<K, R, OBJ>(ctx, range, buf);
}

/// `K` is the compile-time subtopic count for the common sizes (the
/// dispatcher monomorphizes 2, 4, 5, and 8, so their `z`-loops fully
/// unroll);
/// `K = 0` is the fallback that reads the runtime `ctx.k`. Both produce
/// the same bits — unrolling reorders nothing. `R` is the lane count: each
/// edge is read once and its arithmetic runs once per lane, every lane the
/// operations of a one-lane fit in the same order. `OBJ` adds the chunk's
/// share of the surrogate objective to `buf[..R]`; without it the loop
/// has no stash, no `ln` and no fold, those slots stay zero, and every
/// other slot receives the same adds in the same order.
#[inline(always)]
fn estep_fill_portable<const K: usize, const R: usize, const OBJ: bool>(
    ctx: &EStepCtx<'_>,
    range: std::ops::Range<usize>,
    buf: &mut [f64],
) {
    debug_assert!(K == 0 || K == ctx.k);
    debug_assert_eq!(OBJ, ctx.objective);
    let k = if K == 0 { ctx.k } else { K };
    // Lane-interleaved width of one node's `k` values.
    let kr = k * R;
    let state = ctx.state;
    let background = ctx.background;
    let (phi_c, rho_c) = (ctx.phi_c, ctx.rho_c);
    // The background φ0 is pinned to the parent importance, so the
    // background term of an edge reads that one array at both endpoints.
    let parent = &state.parent_flat[..];
    let half_rho0: [f64; R] = std::array::from_fn(|r| 0.5 * rho_c[r]);
    let scaled = ctx.scaled;
    // Pre-split the chunk buffer into its [head | φ] regions so the hot
    // loop indexes small slices directly. `head` is
    // [obj | bg | k numerators], `R` lanes each; slicing the numerator
    // tail once lets the per-edge loops run without bounds checks (and
    // vectorize, since every store target is a disjoint fixed-length
    // slice).
    let (head, phi_b) = buf.split_at_mut(kr + 2 * R);
    let (head_obj, head_z) = head.split_at_mut(2 * R);
    let rho_z = &rho_c[R..R + kr];
    // Per-lane rows of `k` values: stack arrays in the monomorphized
    // paths, heap fallbacks when `K = 0`. `q` is the posterior scratch.
    // The ρ numerators `hz` and the background expectation are
    // chunk-global accumulators, so they can live in registers for the
    // whole edge loop and be flushed once at the end. The chunk buffer
    // arrives zeroed, so `slot += local` writes the identical
    // left-to-right fold the per-edge stores produced.
    let mut q_arr = [[0.0f64; R]; K];
    let mut q_vec;
    let q: &mut [[f64; R]] = if K == 0 {
        q_vec = vec![[0.0f64; R]; k];
        &mut q_vec
    } else {
        &mut q_arr
    };
    let mut hz_arr = [[0.0f64; R]; K];
    let mut hz_vec;
    let hz: &mut [[f64; R]] = if K == 0 {
        hz_vec = vec![[0.0f64; R]; k];
        &mut hz_vec
    } else {
        &mut hz_arr
    };
    // The first endpoint's φ numerators. Edges are sorted by (i, j)
    // within a block, so consecutive edges mostly share their first
    // endpoint: its row is loaded into `row` when `ni` changes and stored
    // back at the next change and at the chunk's end. No other edge can
    // reach that row in between (a second endpoint equal to `ni` is a
    // self-loop, which adds into `row` too), so every cell still receives
    // the same adds in the same order.
    let mut row_arr = [[0.0f64; R]; K];
    let mut row_vec;
    let row: &mut [[f64; R]] = if K == 0 {
        row_vec = vec![[0.0f64; R]; k];
        &mut row_vec
    } else {
        &mut row_arr
    };
    let mut bg_acc = [0.0f64; R];
    let mut row_at: Option<usize> = None;
    // ln(s) is the one long-latency operation per edge, and it feeds
    // nothing but the objective — never the parameters. Deferring it out
    // of the edge loop (stash s and w per lane, run the chunk through the
    // vectorized `fast_ln_slice`, then fold w·ln s in edge order)
    // unserializes the whole E-step: every other per-edge op is a short
    // mul/add/divide the out-of-order window overlaps freely. Without the
    // objective the stash is empty, which allocates nothing.
    let base = range.start;
    let stash = if OBJ { range.len() * R } else { 0 };
    let mut ln_scratch = vec![0.0f64; 3 * stash];
    let (sbuf, rest) = ln_scratch.split_at_mut(stash);
    let (wbuf, lnbuf) = rest.split_at_mut(stash);
    for e in range {
        let (ni, nj) = (state.ni[e] as usize, state.nj[e] as usize);
        let (na, nb) = (ni * kr, nj * kr);
        let w = scaled[e];
        let a = &phi_c[na..na + kr];
        let b = &phi_c[nb..nb + kr];
        let terms = rho_z.iter().zip(a).zip(b);
        for (qv, ((&rz, &az), &bz)) in q.as_flattened_mut().iter_mut().zip(terms) {
            *qv = rz * az * bz;
        }
        // Four stride-4 partial sums folded in a fixed order — the shape
        // a 4-lane vector add produces, so the compiler keeps the whole
        // reduction in SIMD registers. The grouping is a pure function of
        // k: deterministic, thread-invariant, dispatch-invariant.
        let mut acc4 = [[0.0f64; R]; 4];
        let mut quads = q.chunks_exact(4);
        for quad in &mut quads {
            for r in 0..R {
                acc4[0][r] += quad[0][r];
                acc4[1][r] += quad[1][r];
                acc4[2][r] += quad[2][r];
                acc4[3][r] += quad[3][r];
            }
        }
        for (l, qz) in quads.remainder().iter().enumerate() {
            for r in 0..R {
                acc4[l][r] += qz[r];
            }
        }
        let mut s: [f64; R] =
            std::array::from_fn(|r| (acc4[0][r] + acc4[1][r]) + (acc4[2][r] + acc4[3][r]));
        // Background: average of the two link directions, `φ0(i)·p(j)`
        // and `φ0(j)·p(i)` with `φ0 = p`.
        let mut q0 = [0.0f64; R];
        if background {
            let (pi, pj) = (parent[ni], parent[nj]);
            for r in 0..R {
                q0[r] = half_rho0[r] * pi * pj + half_rho0[r] * pj * pi;
                s[r] += q0[r];
            }
        }
        // A lane whose total is not positive takes no part in this edge:
        // its weight `inv` is 0, so it adds an exact +0.0 to every
        // accumulator (all of them are non-negative), and its stash
        // slot holds s = 1, w = 0, an exact +0.0 to the objective.
        let mut inv = [0.0f64; R];
        for r in 0..R {
            let dead = s[r] <= 0.0;
            inv[r] = if dead { 0.0 } else { w / s[r] };
            if OBJ {
                let at = (e - base) * R + r;
                sbuf[at] = if dead { 1.0 } else { s[r] };
                wbuf[at] = if dead { 0.0 } else { w };
            }
        }
        if row_at != Some(na) {
            if let Some(at) = row_at {
                phi_b[at..at + kr].copy_from_slice(row.as_flattened());
            }
            row.as_flattened_mut().copy_from_slice(&phi_b[na..na + kr]);
            row_at = Some(na);
        }
        if na == nb {
            // Self-loop: both endpoints are the register row, so the
            // contribution lands on it twice in sequence (same bits as
            // two indexed adds to one cell).
            for ((qz, hv), rv) in q.iter().zip(&mut *hz).zip(&mut *row) {
                for r in 0..R {
                    let ew = qz[r] * inv[r];
                    hv[r] += ew;
                    rv[r] += ew;
                    rv[r] += ew;
                }
            }
        } else {
            // Distinct rows: the second endpoint's row is in memory and
            // every add below hits a distinct cell, so the store order
            // within an edge cannot change any bits.
            let pb = phi_b[nb..nb + kr].chunks_exact_mut(R);
            for (((qz, hv), rv), pv) in q.iter().zip(&mut *hz).zip(&mut *row).zip(pb) {
                for r in 0..R {
                    let ew = qz[r] * inv[r];
                    hv[r] += ew;
                    rv[r] += ew;
                    pv[r] += ew;
                }
            }
        }
        if background {
            for r in 0..R {
                bg_acc[r] += q0[r] * inv[r];
            }
        }
    }
    // Flush the register accumulators, then the batched objective: ln over
    // the chunk and the w·ln(s) fold in the same edge order the fused loop
    // used.
    if let Some(at) = row_at {
        phi_b[at..at + kr].copy_from_slice(row.as_flattened());
    }
    for (slot, &local) in head_z.iter_mut().zip(hz.as_flattened()) {
        *slot += local;
    }
    for r in 0..R {
        head_obj[R + r] += bg_acc[r];
    }
    if !OBJ {
        return;
    }
    lesm_linalg::fast_ln_slice(sbuf, lnbuf);
    // Same fixed stride-4 shape as the posterior sum: four independent
    // partials per lane keep the long w·ln(s) fold out of a single serial
    // add chain, and the grouping depends only on the chunk length.
    let mut obj4 = [[0.0f64; R]; 4];
    let mut pairs = lnbuf.chunks_exact(4 * R).zip(wbuf.chunks_exact(4 * R));
    for (lq, wq) in &mut pairs {
        for (l, acc) in obj4.iter_mut().enumerate() {
            for r in 0..R {
                acc[r] += wq[l * R + r] * lq[l * R + r];
            }
        }
    }
    let tail = lnbuf.len() - lnbuf.len() % (4 * R);
    let tail_pairs = lnbuf[tail..]
        .chunks_exact(R)
        .zip(wbuf[tail..].chunks_exact(R));
    for (acc, (lv, wv)) in obj4.iter_mut().zip(tail_pairs) {
        for r in 0..R {
            acc[r] += wv[r] * lv[r];
        }
    }
    for r in 0..R {
        head_obj[r] += (obj4[0][r] + obj4[1][r]) + (obj4[2][r] + obj4[3][r]);
    }
}

/// One full EM pass (fixed α) over `R` lanes. Cold, lane `r` is the
/// restart seeded by `seeds[r]`; when `warm` is given (one lane), the
/// passed arena is continued in place instead of random initialization.
/// Every lane computes exactly what a one-lane pass of its own computes:
/// under a positive [`EmConfig::tol`] a lane that meets it is frozen, its
/// parameters and objective kept bit for bit while the others run on, and
/// the pass ends when every lane has stopped.
fn run_em<const R: usize>(
    state: &EdgeState,
    config: &EmConfig,
    scaled: &[f64],
    seeds: &[u64],
    warm: Option<ParamArena>,
    scratch: &mut EmScratch,
) -> LaneRun {
    let k = config.k;
    let t_count = state.t_count;
    let total = state.total_nodes;
    let counts = &state.node_counts;
    let base = &state.node_base;
    let n_edges = state.num_links();

    // Initialize φ and ρ (same RNG draw order as the original nested
    // implementation: type-major, then subtopic, then node), one RNG per
    // lane.
    let mut cur = match warm {
        Some(arena) => {
            debug_assert_eq!(arena.k, k);
            debug_assert_eq!(arena.total, total);
            debug_assert_eq!(arena.lanes, R);
            arena
        }
        None => {
            debug_assert_eq!(seeds.len(), R);
            let mut arena = ParamArena::new(k, total, R);
            let (phi, rho) = arena.split_mut();
            for (r, &seed) in seeds.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let at = |x: usize, i: usize, z: usize| ((base[x] + i) * k + z) * R + r;
                for x in 0..t_count {
                    for z in 0..k {
                        for i in 0..counts[x] {
                            phi[at(x, i, z)] = rng.gen::<f64>() + 0.05;
                        }
                        let mut s = 0.0;
                        for i in 0..counts[x] {
                            s += phi[at(x, i, z)];
                        }
                        if s > 0.0 {
                            for i in 0..counts[x] {
                                phi[at(x, i, z)] /= s;
                            }
                        }
                    }
                }
                if config.background {
                    rho[r] = BACKGROUND_INIT;
                    for z in 1..=k {
                        rho[z * R + r] = (1.0 - BACKGROUND_INIT) / k as f64;
                    }
                } else {
                    for z in 1..=k {
                        rho[z * R + r] = 1.0 / k as f64;
                    }
                }
            }
            arena
        }
    };

    // Ping-pong write arena.
    let mut next = ParamArena::new(k, total, R);

    // Flat accumulator layout, `R` lanes per value:
    // [obj | ρ (k+1) | φ (total·k)].
    let phi_off = (k + 2) * R;
    scratch.acc.clear();
    scratch.acc.resize(phi_off + total * k * R, 0.0);

    let mut objectives = [f64::NEG_INFINITY; R];
    let mut live = [true; R];
    let mut rho_lane = vec![0.0f64; k + 1];
    let grain = lesm_par::grain_for_pieces(n_edges, EM_PIECES);
    let background = config.background;
    let early_exit = config.tol > 0.0;
    for it in 0..config.iters {
        // The objective is read by the early-exit check on every iteration
        // and otherwise only after the last one.
        let with_objective = early_exit || it + 1 == config.iters;
        // E-step + M-step numerators: one chunked reduce over the edges
        // into the flat accumulator. Chunk layout and fold order are
        // fixed, so any thread count gives the same bits as threads = 1.
        let (phi_c, rho_c) = cur.split();
        // ~8k + 16 flops per edge and lane (E-step posterior + numerator
        // adds).
        let hint = lesm_par::WorkHint::items(n_edges, (8 * k + 16) * R);
        let ctx = EStepCtx {
            k,
            background,
            objective: with_objective,
            state,
            scaled,
            phi_c,
            rho_c,
        };
        lesm_par::par_buffer_reduce_with(
            &mut scratch.reduce,
            n_edges,
            grain,
            config.threads,
            hint,
            &mut scratch.acc,
            |range, buf| estep_fill::<R>(&ctx, range, buf),
        );
        let acc = &scratch.acc;
        // M-step: unpack into the write arena with the 1e-12 smoothing the
        // normalizers expect, then swap the arenas.
        {
            let (phi_n, rho_n) = next.split_mut();
            for r in 0..R {
                for (z, v) in rho_lane.iter_mut().enumerate() {
                    *v = 1e-12 + acc[(1 + z) * R + r];
                }
                normalize(&mut rho_lane);
                if background && rho_lane[0] > BACKGROUND_CAP {
                    let excess = rho_lane[0] - BACKGROUND_CAP;
                    let sub_total: f64 = rho_lane[1..].iter().sum();
                    rho_lane[0] = BACKGROUND_CAP;
                    if sub_total > 0.0 {
                        for z in 1..=k {
                            rho_lane[z] += excess * rho_lane[z] / sub_total;
                        }
                    }
                }
                for (z, &v) in rho_lane.iter().enumerate() {
                    rho_n[z * R + r] = v;
                }
            }
            for (p, &a) in phi_n.iter_mut().zip(&acc[phi_off..]) {
                *p = 1e-12 + a;
            }
            // Per-(type, subtopic) normalization, summing nodes in index
            // order exactly as the nested rows did, every lane at once.
            for x in 0..t_count {
                for z in 0..k {
                    let cells = || (0..counts[x]).map(|i| ((base[x] + i) * k + z) * R);
                    let mut s = [0.0f64; R];
                    for at in cells() {
                        for r in 0..R {
                            s[r] += phi_n[at + r];
                        }
                    }
                    for at in cells() {
                        for r in 0..R {
                            if s[r] > 0.0 {
                                phi_n[at + r] /= s[r];
                            }
                        }
                    }
                }
            }
        }
        // A stopped lane keeps its parameters: the write arena takes them
        // back from the read arena before the swap.
        for r in (0..R).filter(|&r| !live[r]) {
            next.copy_lane(&cur, r);
        }
        std::mem::swap(&mut cur, &mut next);
        if !with_objective {
            continue;
        }
        for r in 0..R {
            if !live[r] {
                continue;
            }
            let (prev, obj) = (objectives[r], acc[r]);
            objectives[r] = obj;
            // Convergence early-exit on relative objective improvement.
            if early_exit && prev.is_finite() && (obj - prev).abs() <= config.tol * prev.abs() {
                live[r] = false;
            }
        }
        if !live.contains(&true) {
            break;
        }
    }

    LaneRun {
        arena: cur,
        objectives: objectives.to_vec(),
    }
}

/// Learns link-type weights from the current fit (eqs. 3.37–3.38), then
/// rescales to the Theorem 3.2 constraint.
fn learn_alpha(
    state: &EdgeState,
    fit: &ArenaFit,
    config: &EmConfig,
    scratch: &mut EmScratch,
) -> Vec<f64> {
    let k = fit.arena.k;
    let t_count = state.t_count;
    let n_edges = state.num_links();
    let parent_flat = &state.parent_flat;
    // σ_{x,y} = (1/n_{x,y}) Σ e ln( e / (M_{x,y} s) )
    let mut sigma = vec![0.0f64; t_count * t_count];
    lesm_par::par_buffer_reduce_with(
        &mut scratch.reduce,
        n_edges,
        lesm_par::grain_for_pieces(n_edges, EM_PIECES),
        config.threads,
        lesm_par::WorkHint::items(n_edges, 2 * k + 8),
        &mut sigma,
        |range, buf| {
            for e in range {
                let (ni, nj) = (state.ni[e] as usize, state.nj[e] as usize);
                let w = state.w[e];
                let s = fit.arena.link_total(parent_flat, config.background, ni, nj);
                let m_xy = state.pair_weight[state.tp[e]];
                let pred = (m_xy * s).max(1e-300);
                buf[state.tp[e]] += w * (w / pred).ln();
            }
        },
    );
    let mut alpha = vec![1.0; t_count * t_count];
    let mut log_gm = 0.0;
    let mut n_total = 0usize;
    for (tp, s) in sigma.iter_mut().enumerate() {
        if state.pair_links[tp] > 0 {
            *s = (*s / state.pair_links[tp] as f64).max(1e-6);
            log_gm += state.pair_links[tp] as f64 * s.ln();
            n_total += state.pair_links[tp];
        }
    }
    if n_total == 0 {
        return alpha;
    }
    let gm = (log_gm / n_total as f64).exp();
    for (tp, a) in alpha.iter_mut().enumerate() {
        if state.pair_links[tp] > 0 {
            *a = gm / sigma[tp];
        }
    }
    rescale_alpha(&mut alpha, &state.pair_links);
    alpha
}

/// The parent-topic importance of a network from its weighted degrees
/// per type: each row normalized to sum to 1 (an all-zero row stays zero).
pub(crate) fn parent_importance(mut degrees: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    degrees.iter_mut().for_each(|row| normalize(row));
    degrees
}

fn normalize(row: &mut [f64]) {
    let s: f64 = row.iter().sum();
    if s > 0.0 {
        row.iter_mut().for_each(|x| *x /= s);
    }
}

/// Natural log of the Gamma function (Lanczos approximation, |err| < 1e-10
/// for x > 0). Used by the Poisson likelihood with non-integer weights.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (Numerical Recipes style).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesm_net::NetworkBuilder;

    /// A two-community single-type network: nodes 0-3 densely linked,
    /// nodes 4-7 densely linked, one weak bridge.
    fn two_communities() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["term".into()], vec![8]);
        for grp in [0u32, 4] {
            for i in grp..grp + 4 {
                for j in (i + 1)..grp + 4 {
                    b.add(0, i, 0, j, 10.0);
                }
            }
        }
        b.add(0, 3, 0, 4, 1.0);
        b.build()
    }

    /// Heterogeneous version: authors 0-1 attach to community A terms,
    /// authors 2-3 to community B.
    fn two_communities_hin() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![4, 8]);
        for grp in [0u32, 4] {
            for i in grp..grp + 4 {
                for j in (i + 1)..grp + 4 {
                    b.add(1, i, 1, j, 10.0);
                }
            }
        }
        for t in 0..4u32 {
            b.add(0, 0, 1, t, 6.0);
            b.add(0, 1, 1, t, 6.0);
            b.add(0, 2, 1, t + 4, 6.0);
            b.add(0, 3, 1, t + 4, 6.0);
        }
        b.add(1, 3, 1, 4, 1.0);
        b.build()
    }

    fn cfg(k: usize, background: bool) -> EmConfig {
        EmConfig {
            k,
            iters: 150,
            restarts: 3,
            seed: 7,
            background,
            ..EmConfig::default()
        }
    }

    #[test]
    fn cathy_splits_two_communities() {
        let net = two_communities();
        let fit = CathyHinEm::fit(&net, &cfg(2, false)).unwrap();
        // Each subtopic should concentrate on one community.
        let mass_a0: f64 = fit.phi[0][0][..4].iter().sum();
        let mass_a1: f64 = fit.phi[0][1][..4].iter().sum();
        assert!(
            (mass_a0 > 0.9 && mass_a1 < 0.1) || (mass_a0 < 0.1 && mass_a1 > 0.9),
            "communities not separated: {mass_a0:.3} vs {mass_a1:.3}"
        );
    }

    /// Golden regression against the pre-arena (seed) implementation: the
    /// flat-arena EM must reproduce the seed's community split and
    /// objective to within 1e-9 relative error. The recorded constants
    /// were produced by the nested-`Vec` implementation at PR 1
    /// (`examples/golden_probe.rs` run before the arena rewrite).
    #[test]
    fn golden_matches_seed_implementation() {
        const GOLD_TC_OBJ: f64 = -4.237_522_342_334_86e2;
        const GOLD_TC_LOGLIK: f64 = -1.457_145_166_157_488e2;
        const GOLD_TC_MASS: f64 = 7.649_136_488_182_065e-3;
        let net = two_communities();
        let fit = CathyHinEm::fit(&net, &cfg(2, false)).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(
            rel(fit.objective, GOLD_TC_OBJ) <= 1e-9,
            "two_communities objective drifted: {:.17e} vs {GOLD_TC_OBJ:.17e}",
            fit.objective
        );
        assert!(
            rel(
                fit.loglik(&EdgeState::new(&net), &cfg(2, false)),
                GOLD_TC_LOGLIK
            ) <= 1e-9
        );
        let mass: f64 = fit.phi[0][0][..4].iter().sum();
        assert!(
            (mass - GOLD_TC_MASS).abs() <= 1e-9,
            "two_communities split drifted: {mass:.17e} vs {GOLD_TC_MASS:.17e}"
        );

        const GOLD_HIN_OBJ: f64 = -6.902_586_006_616_54e2;
        const GOLD_HIN_LOGLIK: f64 = -1.753_114_844_233_267e2;
        const GOLD_HIN_TERM_MASS: f64 = 4.424_612_057_166_372e-4;
        let net = two_communities_hin();
        let fit = CathyHinEm::fit(&net, &cfg(2, true)).unwrap();
        assert!(
            rel(fit.objective, GOLD_HIN_OBJ) <= 1e-9,
            "two_communities_hin objective drifted: {:.17e} vs {GOLD_HIN_OBJ:.17e}",
            fit.objective
        );
        assert!(
            rel(
                fit.loglik(&EdgeState::new(&net), &cfg(2, true)),
                GOLD_HIN_LOGLIK
            ) <= 1e-9
        );
        let mass: f64 = fit.phi[1][0][..4].iter().sum();
        assert!(
            (mass - GOLD_HIN_TERM_MASS).abs() <= 1e-9,
            "two_communities_hin split drifted: {mass:.17e} vs {GOLD_HIN_TERM_MASS:.17e}"
        );
    }

    #[test]
    fn fit_prepared_reuses_edge_state_across_k() {
        let net = two_communities_hin();
        let state = EdgeState::new(&net);
        for k in 1..=3 {
            let prepared = CathyHinEm::fit_prepared(&state, &cfg(k, true)).unwrap();
            let plain = CathyHinEm::fit(&net, &cfg(k, true)).unwrap();
            assert_eq!(prepared.objective.to_bits(), plain.objective.to_bits());
            assert_eq!(prepared.phi, plain.phi);
            assert_eq!(prepared.rho, plain.rho);
        }
    }

    #[test]
    fn distributions_normalized() {
        let net = two_communities_hin();
        let fit = CathyHinEm::fit(&net, &cfg(2, true)).unwrap();
        let rho_sum: f64 = fit.rho.iter().sum();
        assert!((rho_sum - 1.0).abs() < 1e-9);
        for x in 0..2 {
            for z in 0..2 {
                let s: f64 = fit.phi[x][z].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "phi[{x}][{z}] sums to {s}");
            }
            let s0: f64 = fit.parent_phi[x].iter().sum();
            assert!((s0 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hin_entities_follow_their_terms() {
        let net = two_communities_hin();
        let fit = CathyHinEm::fit(&net, &cfg(2, true)).unwrap();
        // Whichever subtopic owns terms 0-3 should also own authors 0-1.
        let z_a = if fit.phi[1][0][..4].iter().sum::<f64>() > 0.5 {
            0
        } else {
            1
        };
        let auth_mass: f64 = fit.phi[0][z_a][..2].iter().sum();
        assert!(
            auth_mass > 0.8,
            "authors did not align with terms: {auth_mass:.3}"
        );
    }

    #[test]
    fn posterior_sums_to_one_and_subnetwork_extracts() {
        let net = two_communities_hin();
        let fit = CathyHinEm::fit(&net, &cfg(2, true)).unwrap();
        let q = fit.link_posterior(1, 0, 1, 1);
        let s: f64 = q.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        let sub = &EdgeState::new(&net).children(&fit, 1.0)[0];
        assert!(sub.num_links() > 0);
        assert!(sub.total_weight() < net.total_weight());
    }

    #[test]
    fn learned_weights_satisfy_constraint() {
        let net = two_communities_hin();
        let mut c = cfg(2, true);
        c.weights = WeightMode::Learned;
        let fit = CathyHinEm::fit(&net, &c).unwrap();
        // Π α^{n} = 1  (log-domain check over pairs with links).
        let mut log_sum = 0.0;
        for blk in &net.blocks {
            let tp = blk.tx * net.num_types() + blk.ty;
            log_sum += blk.len() as f64 * fit.alpha[tp].ln();
        }
        assert!(log_sum.abs() < 1e-6, "constraint violated: {log_sum}");
    }

    #[test]
    fn empty_network_rejected() {
        let net = TypedNetwork::new(vec!["t".into()], vec![3]);
        assert!(matches!(
            CathyHinEm::fit(&net, &cfg(2, false)),
            Err(HierError::EmptyNetwork)
        ));
        let net2 = two_communities();
        assert!(CathyHinEm::fit(&net2, &cfg(0, false)).is_err());
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, f) in [
            (1u32, 1.0f64),
            (2, 1.0),
            (3, 2.0),
            (5, 24.0),
            (10, 362880.0),
        ] {
            assert!(
                (ln_gamma(n as f64) - f.ln()).abs() < 1e-8,
                "lnΓ({n}) != ln({f})"
            );
        }
        // Γ(0.5) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-8);
    }

    #[test]
    fn objective_improves_with_more_restarts_or_equal() {
        let net = two_communities();
        let one = CathyHinEm::fit(
            &net,
            &EmConfig {
                restarts: 1,
                ..cfg(2, false)
            },
        )
        .unwrap();
        let five = CathyHinEm::fit(
            &net,
            &EmConfig {
                restarts: 5,
                ..cfg(2, false)
            },
        )
        .unwrap();
        assert!(five.objective >= one.objective - 1e-9);
    }

    /// The final objectives of `config`'s fits (tolerance 0) for each
    /// iteration budget in `budgets`, with the fits. With one restart and
    /// fixed weights the run of budget `n` is a prefix of the run of
    /// budget `n + 1`, so the objectives are one run's per-iteration
    /// objective trace.
    fn objective_trace(
        net: &TypedNetwork,
        config: &EmConfig,
        budgets: std::ops::RangeInclusive<usize>,
    ) -> Vec<(f64, EmFit)> {
        let state = EdgeState::new(net);
        budgets
            .map(|iters| {
                let c = EmConfig {
                    iters,
                    tol: 0.0,
                    ..config.clone()
                };
                let fit = CathyHinEm::fit_prepared(&state, &c).unwrap();
                (fit.objective, fit)
            })
            .collect()
    }

    fn phi_bits(fit: &EmFit) -> Vec<u64> {
        fit.phi
            .iter()
            .flatten()
            .flatten()
            .map(|p| p.to_bits())
            .collect()
    }

    #[test]
    fn trace_monotone_with_and_without_background() {
        for (net, bg) in [
            (two_communities(), false),
            (two_communities_hin(), false),
            (two_communities_hin(), true),
        ] {
            let c = EmConfig {
                restarts: 1,
                ..cfg(2, bg)
            };
            let trace = objective_trace(&net, &c, 1..=c.iters);
            for w in trace.windows(2) {
                let (a, b) = (w[0].0, w[1].0);
                assert!(
                    b >= a - 1e-6 * (1.0 + a.abs()),
                    "objective decreased (bg={bg}): {a} -> {b}"
                );
            }
        }
    }

    /// With `tol = 0` a run goes on through the iteration where a positive
    /// tolerance would have stopped it.
    #[test]
    fn zero_tol_never_exits_early() {
        let net = two_communities_hin();
        let c = EmConfig {
            restarts: 1,
            tol: 0.0,
            ..cfg(2, true)
        };
        let trace = objective_trace(&net, &c, 1..=c.iters);
        let converged = (1..trace.len())
            .find(|&n| (trace[n].0 - trace[n - 1].0).abs() <= 1e-7 * trace[n - 1].0.abs())
            .expect("the run converges within its budget");
        assert!(converged + 1 < c.iters);
        let fit = CathyHinEm::fit(&net, &c).unwrap();
        assert_eq!(phi_bits(&fit), phi_bits(&trace[c.iters - 1].1));
        assert_ne!(
            phi_bits(&fit),
            phi_bits(&trace[converged].1),
            "tol = 0 must run every iteration"
        );
    }

    #[test]
    fn early_exit_trace_is_a_prefix_of_the_full_trace() {
        let net = two_communities_hin();
        let full_cfg = EmConfig {
            restarts: 1,
            tol: 0.0,
            ..cfg(2, true)
        };
        let trace = objective_trace(&net, &full_cfg, 1..=full_cfg.iters);
        let tol = 1e-7;
        let early = CathyHinEm::fit(
            &net,
            &EmConfig {
                tol,
                ..full_cfg.clone()
            },
        )
        .unwrap();
        // The early run is, bit for bit, the full run cut at some budget
        // `n`: it computes the same iterations and stops sooner.
        let n = 1 + trace
            .iter()
            .position(|(obj, fit)| {
                obj.to_bits() == early.objective.to_bits() && phi_bits(fit) == phi_bits(&early)
            })
            .expect("the early fit is a budget of the full run");
        assert!(n < full_cfg.iters, "tolerance should stop this run early");
        // The exit condition held at iteration n and at no earlier one.
        let held = |m: usize| (trace[m - 1].0 - trace[m - 2].0).abs() <= tol * trace[m - 2].0.abs();
        assert!(held(n));
        assert!((2..n).all(|m| !held(m)));
    }

    /// A delta for [`two_communities_hin`]: one new author (id 4) and one
    /// new term (id 8) attaching to community B, plus a reinforcing edge
    /// between existing nodes.
    fn hin_delta() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![5, 9]);
        b.add(1, 8, 1, 4, 7.0);
        b.add(1, 8, 1, 5, 7.0);
        b.add(0, 4, 1, 8, 5.0);
        b.add(0, 4, 1, 4, 5.0);
        b.add(1, 4, 1, 5, 3.0);
        b.build()
    }

    #[test]
    fn append_delta_grows_the_flatten_without_rebuilding() {
        let net = two_communities_hin();
        let mut state = EdgeState::new(&net);
        let (links0, nodes0) = (state.num_links(), state.total_nodes());
        let flattens = EdgeState::flattens_on_this_thread();
        state.append_delta(&hin_delta()).unwrap();
        assert_eq!(
            EdgeState::flattens_on_this_thread(),
            flattens,
            "no re-flatten"
        );
        assert_eq!(state.num_links(), links0 + hin_delta().num_links());
        assert_eq!(state.total_nodes(), nodes0 + 2);
        // The appended flatten still fits cleanly.
        let fit = CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap();
        for x in 0..2 {
            for z in 0..2 {
                let s: f64 = fit.phi[x][z].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "phi[{x}][{z}] sums to {s}");
            }
        }
        assert_eq!(fit.phi[0][0].len(), 5);
        assert_eq!(fit.phi[1][0].len(), 9);
    }

    #[test]
    fn append_delta_rejects_mismatched_shapes() {
        let mut state = EdgeState::new(&two_communities_hin());
        // Wrong type count.
        let other = NetworkBuilder::new(vec!["term".into()], vec![8]).build();
        assert!(state.append_delta(&other).is_err());
        // Shrinking node space.
        let small = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![2, 8]).build();
        assert!(state.append_delta(&small).is_err());
    }

    #[test]
    fn append_delta_is_bit_deterministic() {
        let fit_of = || {
            let mut state = EdgeState::new(&two_communities_hin());
            state.append_delta(&hin_delta()).unwrap();
            CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap()
        };
        let (a, b) = (fit_of(), fit_of());
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.phi, b.phi);
        assert_eq!(a.rho, b.rho);
    }

    #[test]
    fn empty_delta_leaves_fit_bits_unchanged() {
        let net = two_communities_hin();
        let mut state = EdgeState::new(&net);
        let before = CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap();
        // Same node space, no edges.
        let empty = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![4, 8]).build();
        state.append_delta(&empty).unwrap();
        let after = CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap();
        assert_eq!(before.objective.to_bits(), after.objective.to_bits());
        assert_eq!(before.phi, after.phi);
    }

    #[test]
    fn fit_warm_continues_deterministically_and_covers_new_nodes() {
        let net = two_communities_hin();
        let mut state = EdgeState::new(&net);
        let base = CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap();
        state.append_delta(&hin_delta()).unwrap();
        let budget = EmConfig {
            iters: 20,
            tol: 1e-6,
            ..cfg(2, true)
        };
        let warm_a = CathyHinEm::fit_warm(&state, &budget, &base).unwrap();
        let warm_b = CathyHinEm::fit_warm(&state, &budget, &base).unwrap();
        assert_eq!(warm_a.objective.to_bits(), warm_b.objective.to_bits());
        assert_eq!(warm_a.phi, warm_b.phi);
        // New nodes are represented and every row is still a distribution.
        assert_eq!(warm_a.phi[0][0].len(), 5);
        assert_eq!(warm_a.phi[1][0].len(), 9);
        for x in 0..2 {
            for z in 0..2 {
                let s: f64 = warm_a.phi[x][z].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "phi[{x}][{z}] sums to {s}");
            }
        }
        // The new term attaches to community B's subtopic with real mass.
        let z_b = if warm_a.phi[1][0][4..8].iter().sum::<f64>() > 0.5 {
            0
        } else {
            1
        };
        assert!(
            warm_a.phi[1][z_b][8] > warm_a.phi[1][1 - z_b][8],
            "new term did not follow its community"
        );
        // Warm trace stays monotone (it is still EM).
        // Warm objectives stay monotone in the budget (it is still EM).
        let warm_trace: Vec<f64> = (1..=budget.iters)
            .map(|iters| {
                let c = EmConfig {
                    iters,
                    tol: 0.0,
                    ..budget.clone()
                };
                CathyHinEm::fit_warm(&state, &c, &base).unwrap().objective
            })
            .collect();
        for w in warm_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()));
        }
    }

    /// The background `φ0` is the parent importance of the network a fit
    /// came from, so every link posterior's background share must be
    /// `0.5·ρ0·(p_i·p_j + p_j·p_i)` over the posterior total with the
    /// background on, and 0 with it off: cold or warm, under learned
    /// weights, at any thread count.
    #[test]
    fn phi0_is_the_pinned_parent_importance() {
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for background in [true, false] {
            for threads in [1, 3] {
                let c = EmConfig {
                    threads,
                    weights: WeightMode::Learned,
                    ..cfg(2, background)
                };
                let mut state = EdgeState::new(&two_communities_hin());
                let cold_importance = Arc::clone(&state.parent_phi);
                let cold = CathyHinEm::fit_prepared(&state, &c).unwrap();
                state.append_delta(&hin_delta()).unwrap();
                let warm =
                    CathyHinEm::fit_warm(&state, &EmConfig { iters: 20, ..c }, &cold).unwrap();
                let net = two_communities_hin();
                for (name, fit, importance) in [
                    ("cold", &cold, &cold_importance),
                    ("warm", &warm, &state.parent_phi),
                ] {
                    let at = format!("{name}, background {background}, {threads} threads");
                    assert_eq!(fit.background, background, "{at}");
                    assert_eq!(bits(&fit.parent_phi), bits(importance), "{at}");
                    for blk in &net.blocks {
                        for &(i, j, _) in &blk.edges {
                            let q = fit.link_posterior(blk.tx, i, blk.ty, j);
                            let (i, j) = (i as usize, j as usize);
                            let p = &fit.parent_phi;
                            let (pi, pj) = (p[blk.tx][i], p[blk.ty][j]);
                            let q0 = if background {
                                0.5 * fit.rho[0] * (pi * pj + pj * pi)
                            } else {
                                0.0
                            };
                            let mut total = 0.0;
                            for z in 0..fit.k {
                                total +=
                                    fit.rho[z + 1] * fit.phi[blk.tx][z][i] * fit.phi[blk.ty][z][j];
                            }
                            total += q0;
                            assert_eq!(q[0].to_bits(), (q0 / total).to_bits(), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// A three-type network (authors, terms, venues) with enough links for
    /// every E-step chunk to hold several, runs of links that share a
    /// first endpoint, and term self-loops, drawn by a fixed LCG; `salt`
    /// picks another draw.
    fn pinned_network(authors: u32, terms: u32, venues: u32, salt: u64) -> TypedNetwork {
        let names = vec!["author".into(), "term".into(), "venue".into()];
        let mut b = NetworkBuilder::new(
            names,
            vec![authors as usize, terms as usize, venues as usize],
        );
        let mut s = 0x2545_f491_4f6c_dd1du64 ^ salt;
        let mut next = |n: u32| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 33) % n as u64) as u32
        };
        for _ in 0..160 {
            let (i, j, w) = (next(terms), next(terms), 1 + next(9));
            b.add(1, i, 1, j, w as f64);
        }
        for _ in 0..90 {
            let (a, t, w) = (next(authors), next(terms), 1 + next(5));
            b.add(0, a, 1, t, w as f64);
        }
        for _ in 0..40 {
            let (v, t, w) = (next(venues), next(terms), 1 + next(4));
            b.add(2, v, 1, t, 0.5 * w as f64);
        }
        b.build()
    }

    /// FNV-1a over the bits of every value, in order.
    fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `[φ, ρ, α, θ]` digests and the objective bits of `fit`.
    fn fit_digest(fit: &EmFit) -> [u64; 5] {
        let phi = fit.phi.iter().flatten().flatten().copied();
        [
            fnv(phi),
            fnv(fit.rho.iter().copied()),
            fnv(fit.alpha.iter().copied()),
            fnv(fit.theta.iter().copied()),
            fit.objective.to_bits(),
        ]
    }

    /// Pins every parameter bit of three fits that reach the E-step's
    /// distinct paths: a cold learned-weight fit with the background at
    /// k = 4 (a monomorphized loop), a cold fit at k = 3 (the runtime-k
    /// loop, no background), and a warm continuation with a tolerance.
    /// A change to how the EM computes must leave every digest alone.
    #[test]
    fn em_parameter_bits_are_pinned() {
        let base = pinned_network(12, 30, 5, 0);
        let mut state = EdgeState::new(&base);
        let learned = EmConfig {
            k: 4,
            iters: 60,
            restarts: 2,
            seed: 3,
            background: true,
            weights: WeightMode::Learned,
            ..EmConfig::default()
        };
        let cold = CathyHinEm::fit_prepared(&state, &learned).unwrap();
        let generic = EmConfig {
            k: 3,
            background: false,
            weights: WeightMode::Equal,
            ..learned.clone()
        };
        let generic_fit = CathyHinEm::fit_prepared(&state, &generic).unwrap();
        state.append_delta(&pinned_network(14, 33, 5, 1)).unwrap();
        let warm_cfg = EmConfig {
            iters: 40,
            tol: 1e-4,
            ..learned.clone()
        };
        // The tolerance stops this continuation at iteration 31 of 40.
        let warm = CathyHinEm::fit_warm(&state, &warm_cfg, &cold).unwrap();
        let got = [
            fit_digest(&cold),
            fit_digest(&generic_fit),
            fit_digest(&warm),
        ];
        assert_eq!(got, PINNED_FIT_DIGESTS, "{got:#018x?}");
        // Any thread count gives the same bits.
        let threaded = EmConfig {
            threads: 3,
            ..learned
        };
        let state = EdgeState::new(&base);
        assert_eq!(
            fit_digest(&CathyHinEm::fit_prepared(&state, &threaded).unwrap()),
            got[0]
        );
    }

    const PINNED_FIT_DIGESTS: [[u64; 5]; 3] = [
        [
            0x4865_8533_f290_2b38,
            0x0dd7_2eac_1905_e61b,
            0x3dcb_3429_0062_af49,
            0x15b1_261a_12b4_b188,
            0xc0b8_1bec_4b6d_3935,
        ],
        [
            0x911c_443c_4547_a258,
            0x9b9e_60be_aba9_9112,
            0xbeee_4352_ffcd_9d38,
            0x2c51_6040_3309_fc90,
            0xc0bc_6e29_8145_21d2,
        ],
        [
            0x5209_4478_0626_f85b,
            0x9987_8b05_50d2_6851,
            0x9e96_e04a_265c_96c3,
            0x15a5_0ddc_b966_df08,
            0xc0c8_9787_e97f_650d,
        ],
    ];

    /// The iteration at which a one-restart fit under `c` (whose `tol` is
    /// positive) stops, `c.iters` when it runs to the end: the smallest
    /// budget whose fit equals the full budget's bit for bit (every
    /// smaller budget cuts the run short of its stop).
    fn stop_iteration(state: &EdgeState, c: &EmConfig) -> usize {
        let digest = |iters: usize| {
            let budget = EmConfig { iters, ..c.clone() };
            fit_digest(&CathyHinEm::fit_prepared(state, &budget).unwrap())
        };
        let full = digest(c.iters);
        let budgets: Vec<usize> = (1..=c.iters).collect();
        1 + budgets.partition_point(|&n| digest(n) != full)
    }

    /// Pins every parameter bit of cold multi-restart fits: 3, 4 and 6
    /// restarts (6 is chapter 3's configuration), k = 4 and 5 (compiled
    /// loops) and a runtime k = 3, each weight mode, and a tolerance under
    /// which the restarts stop at different iterations, the winner before
    /// another restart of its block of four. Restarts 0 fit as one
    /// restart, and 3 threads give the bits of 1.
    #[test]
    fn restart_bits_are_pinned() {
        let state = EdgeState::new(&pinned_network(12, 30, 5, 0));
        let base = EmConfig {
            k: 4,
            iters: 60,
            restarts: 3,
            seed: 11,
            background: true,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let configs = [
            base.clone(),
            EmConfig {
                k: 5,
                restarts: 4,
                weights: WeightMode::Learned,
                ..base.clone()
            },
            EmConfig {
                k: 3,
                restarts: 6,
                background: false,
                weights: WeightMode::Normalized,
                ..base.clone()
            },
            EmConfig {
                restarts: 6,
                iters: 200,
                seed: 10,
                tol: 1e-6,
                ..base.clone()
            },
            EmConfig {
                restarts: 1,
                ..base.clone()
            },
        ];
        let got: Vec<[u64; 5]> = configs
            .iter()
            .map(|c| fit_digest(&CathyHinEm::fit_prepared(&state, c).unwrap()))
            .collect();
        assert_eq!(got, PINNED_RESTART_DIGESTS, "{got:#018x?}");
        for (c, want) in configs.iter().zip(&got) {
            let threaded = EmConfig {
                threads: 3,
                ..c.clone()
            };
            let fit = CathyHinEm::fit_prepared(&state, &threaded).unwrap();
            assert_eq!(fit_digest(&fit), *want, "3 threads, {c:?}");
        }
        let zero = EmConfig {
            restarts: 0,
            ..base.clone()
        };
        let fit = CathyHinEm::fit_prepared(&state, &zero).unwrap();
        assert_eq!(fit_digest(&fit), got[4], "restarts 0 fit as 1");
        // Under the tolerance the six restarts stop at different
        // iterations, and the winner stops before another restart of its
        // block of four: a multi-restart pass must keep a stopped restart
        // as it was while the others run on.
        let tol = &configs[3];
        let runs: Vec<(usize, f64)> = (0..tol.restarts as u64)
            .map(|r| {
                let one = EmConfig {
                    restarts: 1,
                    seed: tol.seed + r * 1313,
                    ..tol.clone()
                };
                let objective = CathyHinEm::fit_prepared(&state, &one).unwrap().objective;
                (stop_iteration(&state, &one), objective)
            })
            .collect();
        let winner = (1..runs.len()).fold(0, |w, r| if runs[r].1 > runs[w].1 { r } else { w });
        let block = &runs[winner / 4 * 4..(winner / 4 * 4 + 4).min(runs.len())];
        assert!(block.iter().any(|run| run.0 > runs[winner].0), "{runs:?}");
        assert!(runs.windows(2).any(|w| w[0].0 != w[1].0), "{runs:?}");
    }

    const PINNED_RESTART_DIGESTS: [[u64; 5]; 5] = [
        [
            0xa7cc_edc2_9ce0_03e4,
            0x12dc_a542_d7c6_93ec,
            0xbeee_4352_ffcd_9d38,
            0x2c51_6040_3309_fc90,
            0xc0bb_f968_0005_a667,
        ],
        [
            0x23d9_b892_a3d6_2124,
            0x8ba3_7ca6_c541_ffa8,
            0xe365_1728_cd0b_03b6,
            0x9f48_3843_1fa0_211b,
            0xc0b7_db71_95f8_0eea,
        ],
        [
            0xe9e3_09a4_81a1_8d80,
            0x2015_12da_93f9_8aac,
            0xb46d_2eaa_72ca_a574,
            0x3b4c_6e97_b938_b7c5,
            0xc0b9_a8d6_008b_b454,
        ],
        [
            0x0344_4540_d4ef_0115,
            0x6abf_936d_ae8e_f426,
            0xbeee_4352_ffcd_9d38,
            0x2c51_6040_3309_fc90,
            0xc0bb_f093_9ba1_488f,
        ],
        [
            0xa5b0_93ed_f3c6_8cf5,
            0x1240_6e21_0c69_9499,
            0xbeee_4352_ffcd_9d38,
            0x2c51_6040_3309_fc90,
            0xc0bc_24af_5d03_2a40,
        ],
    ];

    /// One chunk fill of the E-step over all of `ctx`'s links, as bits,
    /// with and without the objective.
    fn fill_bits<const K: usize, const R: usize>(ctx: &EStepCtx<'_>) -> [Vec<u64>; 2] {
        let len = (ctx.k + 2) * R + ctx.state.total_nodes * ctx.k * R;
        let links = 0..ctx.state.num_links();
        let mut with = vec![0.0; len];
        estep_fill_portable::<K, R, true>(
            &EStepCtx {
                objective: true,
                ..*ctx
            },
            links.clone(),
            &mut with,
        );
        let mut without = vec![0.0; len];
        estep_fill_portable::<K, R, false>(
            &EStepCtx {
                objective: false,
                ..*ctx
            },
            links,
            &mut without,
        );
        [with, without].map(|buf| buf.iter().map(|v| v.to_bits()).collect())
    }

    /// An E-step context over `arena`'s parameters, with the background.
    fn ctx_over<'a>(
        k: usize,
        state: &'a EdgeState,
        scaled: &'a [f64],
        arena: &'a ParamArena,
    ) -> EStepCtx<'a> {
        let (phi_c, rho_c) = arena.split();
        EStepCtx {
            k,
            background: true,
            objective: true,
            state,
            scaled,
            phi_c,
            rho_c,
        }
    }

    /// The loops compiled for k = 2, 4, 5 and 8 give the runtime-k loop's
    /// bits, at one lane and at four.
    #[test]
    fn compiled_k_loops_match_the_runtime_loop() {
        let state = EdgeState::new(&pinned_network(12, 30, 5, 0));
        let scaled: Vec<f64> = state.w.iter().map(|w| 0.7 * w).collect();
        for k in [2, 4, 5, 8] {
            let c = EmConfig {
                k,
                iters: 0,
                ..EmConfig::default()
            };
            let mut scratch = EmScratch::default();
            // Zero iterations leave the random starts of four restarts.
            let lanes = run_em::<4>(&state, &c, &scaled, &[1, 2, 3, 4], None, &mut scratch).arena;
            let one = lanes.lane(2);
            let ctx = |arena| ctx_over(k, &state, &scaled, arena);
            let (four, single) = (ctx(&lanes), ctx(&one));
            let compiled = match k {
                2 => [fill_bits::<2, 4>(&four), fill_bits::<2, 1>(&single)],
                4 => [fill_bits::<4, 4>(&four), fill_bits::<4, 1>(&single)],
                5 => [fill_bits::<5, 4>(&four), fill_bits::<5, 1>(&single)],
                _ => [fill_bits::<8, 4>(&four), fill_bits::<8, 1>(&single)],
            };
            let runtime = [fill_bits::<0, 4>(&four), fill_bits::<0, 1>(&single)];
            assert_eq!(compiled, runtime, "k = {k}");
        }
    }

    #[test]
    fn fit_warm_validates_previous_fit_shape() {
        let net = two_communities_hin();
        let state = EdgeState::new(&net);
        let base = CathyHinEm::fit_prepared(&state, &cfg(2, true)).unwrap();
        // k mismatch between config and previous fit.
        assert!(CathyHinEm::fit_warm(&state, &cfg(3, true), &base).is_err());
        // Previous fit knows more nodes than the network has.
        let small = {
            let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![2, 3]);
            b.add(0, 0, 1, 0, 1.0);
            b.add(0, 1, 1, 2, 1.0);
            b.build()
        };
        let small_state = EdgeState::new(&small);
        assert!(CathyHinEm::fit_warm(&small_state, &cfg(2, true), &base).is_err());
    }

    #[test]
    fn flatten_counter_counts_edge_state_builds() {
        let net = two_communities();
        let before = EdgeState::flattens_on_this_thread();
        let state = EdgeState::new(&net);
        let _ = CathyHinEm::fit_prepared(&state, &cfg(2, false)).unwrap();
        let _ = CathyHinEm::fit_prepared(&state, &cfg(3, false)).unwrap();
        assert_eq!(EdgeState::flattens_on_this_thread() - before, 1);
        let _ = CathyHinEm::fit(&net, &cfg(2, false)).unwrap();
        assert_eq!(EdgeState::flattens_on_this_thread() - before, 2);
    }
}
