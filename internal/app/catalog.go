package app

import (
	"fmt"
	"slices"
	"sort"

	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/interference"
)

// Site construction helpers keep the catalog readable.

func perf(name string, runtime, traffic, useful, qCoef, qExp float64) approx.Site {
	return approx.Site{
		Name: name, Technique: approx.LoopPerforation,
		RuntimeShare: runtime, TrafficShare: traffic,
		UsefulFrac: useful, QualityCoef: qCoef, QualityExp: qExp,
	}
}

func elide(name string, runtime, traffic, useful, qCoef, qExp float64) approx.Site {
	return approx.Site{
		Name: name, Technique: approx.SyncElision,
		RuntimeShare: runtime, TrafficShare: traffic,
		UsefulFrac: useful, QualityCoef: qCoef, QualityExp: qExp,
	}
}

func prec(name string, runtime, traffic, useful, qCoef, qExp float64) approx.Site {
	return approx.Site{
		Name: name, Technique: approx.PrecisionReduction,
		RuntimeShare: runtime, TrafficShare: traffic,
		UsefulFrac: useful, QualityCoef: qCoef, QualityExp: qExp,
	}
}

// catalog is the built-in application set, built once per process because
// the online scheduler looks profiles up on every node episode. It is
// read-only after package initialization, so concurrent shards share it
// without locks; every exported accessor hands out copies (with their own
// Sites slices), never the entries themselves.
var (
	catalog      = buildCatalog()
	catalogIndex = indexCatalog(catalog)
)

// indexCatalog maps each application name to its catalog position.
func indexCatalog(cat []Profile) map[string]int {
	idx := make(map[string]int, len(cat))
	for i, p := range cat {
		idx[p.Name] = i
	}
	return idx
}

// clone returns p with a private copy of its Sites, so the copy can be
// mutated without reaching the catalog.
func (p Profile) clone() Profile {
	p.Sites = slices.Clone(p.Sites)
	return p
}

// buildCatalog returns the profiles of all 24 approximate applications, in
// the presentation order of the paper's Fig. 5: three PARSEC and three
// SPLASH-2 workloads, ten MineBench data-mining applications, and eight
// BioPerf bioinformatics applications.
//
// Profile parameters are calibrated to the paper's characterizations rather
// than measured on hardware (see DESIGN.md §1): cache/bandwidth pressures
// track the per-app QoS-violation magnitudes of Fig. 1's even rows;
// runtime/traffic shares of the approximable sites track which applications
// gain speed (streamcluster) versus only shed traffic (water_spatial,
// canneal) when approximated; MaxVariants pins the selected-variant counts
// the paper reports for its highlighted applications (canneal 4, raytrace 2,
// Bayesian 8, SNP 5, PLSA 8).
func buildCatalog() []Profile {
	return []Profile{
		// ---------------------------------------------------------- PARSEC
		{
			Name: "fluidanimate", Suite: PARSEC,
			NominalExecSec: 30, ParallelExp: 0.92,
			LLCMB: 40, BWPerCoreGBs: 1.8,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: true, MaxVariants: 3,
			DynOverhead: 0.021, PhaseAmp: 0.20, PhasePeriodSec: 5,
			QualityMetric: "particle position RMS error",
			Sites: []approx.Site{
				perf("ComputeForces_loop", 0.45, 0.40, 0.55, 0.085, 1.4),
				elide("grid_mutex", 0.06, 0.10, 0.30, 0.012, 1.0),
			},
		},
		{
			Name: "canneal", Suite: PARSEC,
			NominalExecSec: 38, ParallelExp: 0.85,
			// Canneal's pointer-chasing netlist makes it an LLC hog with
			// modest bandwidth; approximation sheds little of that traffic
			// (paper: approximation alone does not fix canneal-memcached).
			LLCMB: 52, BWPerCoreGBs: 2.2,
			Sensitivity: interference.Sensitivity{LLC: 0.8, MemBW: 0.5},
			AcceptHints: true, MaxVariants: 4,
			DynOverhead: 0.045, PhaseAmp: 0.30, PhasePeriodSec: 8,
			QualityMetric: "final routing cost increase",
			Sites: []approx.Site{
				// Simulated-annealing move loop: many moves are rejected,
				// so a large fraction of iterations is skippable for free
				// (the paper's Sec. 3 canneal example).
				perf("annealer_move_loop", 0.62, 0.22, 0.42, 0.16, 1.25),
				elide("netlist_swap_lock", 0.07, 0.08, 0.55, 0.01, 1.0),
			},
		},
		{
			Name: "streamcluster", Suite: PARSEC,
			NominalExecSec: 42, ParallelExp: 0.90,
			// Streaming k-median clustering: the heaviest bandwidth
			// consumer in the set (paper Fig. 1: ~9× NGINX violations).
			LLCMB: 58, BWPerCoreGBs: 5.0,
			Sensitivity: interference.Sensitivity{LLC: 0.5, MemBW: 0.8},
			AcceptHints: true, MaxVariants: 5,
			DynOverhead: 0.052, PhaseAmp: 0.25, PhasePeriodSec: 6,
			QualityMetric: "clustering cost (BCB) increase",
			Sites: []approx.Site{
				perf("pgain_eval_loop", 0.55, 0.45, 0.50, 0.075, 1.35),
				perf("dist_refine_loop", 0.20, 0.25, 0.45, 0.05, 1.3),
				elide("open_center_lock", 0.06, 0.08, 0.35, 0.02, 1.0),
			},
		},
		// -------------------------------------------------------- SPLASH-2
		{
			Name: "water_nsquared", Suite: SPLASH2,
			NominalExecSec: 35, ParallelExp: 0.88,
			LLCMB: 46, BWPerCoreGBs: 3.0,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.6},
			AcceptHints: true, MaxVariants: 4,
			DynOverhead: 0.034, PhaseAmp: 0.15, PhasePeriodSec: 4,
			QualityMetric: "potential energy error",
			Sites: []approx.Site{
				// O(n²) pairwise interactions: perforation cuts time but
				// the remaining pairs still sweep the whole dataset, so
				// traffic relief is limited (paper: approximation has
				// little tail-latency impact for water_nsquared).
				perf("interf_pair_loop", 0.58, 0.18, 0.60, 0.095, 1.3),
				prec("forces_double_to_float", 0.10, 0.12, 0.40, 0.012, 1.0),
			},
		},
		{
			Name: "water_spatial", Suite: SPLASH2,
			NominalExecSec: 33, ParallelExp: 0.88,
			LLCMB: 50, BWPerCoreGBs: 3.5,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.6},
			AcceptHints: true, MaxVariants: 4,
			// The paper's worst instrumentation overhead (8.9%) and the one
			// app whose execution time degrades under Pliant: its variants
			// shed traffic but barely any execution time ("an almost
			// vertical line" in Fig. 1).
			DynOverhead: 0.089, PhaseAmp: 0.18, PhasePeriodSec: 5,
			QualityMetric: "potential energy error",
			Sites: []approx.Site{
				perf("box_neighbor_loop", 0.08, 0.42, 0.50, 0.12, 1.2),
				prec("coords_double_to_float", 0.04, 0.22, 0.45, 0.025, 1.15),
			},
		},
		{
			Name: "raytrace", Suite: SPLASH2,
			NominalExecSec: 24, ParallelExp: 0.95,
			// Phase-heavy renderer: pressure comes in bursts (paper: "only
			// introduces high compute and LLC interference in certain
			// execution phases").
			LLCMB: 38, BWPerCoreGBs: 1.5,
			Sensitivity: interference.Sensitivity{LLC: 0.5, MemBW: 0.4},
			AcceptHints: true, MaxVariants: 2,
			DynOverhead: 0.018, PhaseAmp: 0.45, PhasePeriodSec: 7,
			QualityMetric: "pixel RMS error",
			Sites: []approx.Site{
				// Dropping secondary rays barely dents image quality:
				// the paper's raytrace variants sit below 0.1% inaccuracy.
				perf("secondary_ray_loop", 0.60, 0.45, 0.015, 0.9, 1.0),
			},
		},
		// ------------------------------------------------------- MineBench
		{
			Name: "Bayesian", Suite: MineBench,
			NominalExecSec: 52, ParallelExp: 0.90,
			LLCMB: 48, BWPerCoreGBs: 3.0,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.6},
			AcceptHints: true, MaxVariants: 8,
			DynOverhead: 0.031, PhaseAmp: 0.20, PhasePeriodSec: 6,
			QualityMetric: "classification accuracy loss",
			// A very rich design space (paper: 8 variants on the pareto
			// curve) from four independently approximable phases.
			Sites: []approx.Site{
				perf("likelihood_scan", 0.35, 0.30, 0.55, 0.035, 1.3),
				perf("feature_update_loop", 0.25, 0.22, 0.50, 0.035, 1.3),
				perf("prior_smooth_loop", 0.12, 0.10, 0.45, 0.035, 1.25),
				prec("prob_double_to_float", 0.08, 0.15, 0.40, 0.02, 1.0),
			},
		},
		{
			Name: "k-means", Suite: MineBench,
			NominalExecSec: 28, ParallelExp: 0.93,
			LLCMB: 55, BWPerCoreGBs: 4.2,
			Sensitivity: interference.Sensitivity{LLC: 0.5, MemBW: 0.7},
			AcceptHints: true, MaxVariants: 6,
			DynOverhead: 0.026, PhaseAmp: 0.15, PhasePeriodSec: 4,
			QualityMetric: "centroid displacement",
			Sites: []approx.Site{
				perf("assign_points_loop", 0.55, 0.50, 0.50, 0.07, 1.35),
				perf("converge_iters", 0.25, 0.22, 0.55, 0.055, 1.3),
			},
		},
		{
			Name: "BIRCH", Suite: MineBench,
			NominalExecSec: 36, ParallelExp: 0.89,
			LLCMB: 42, BWPerCoreGBs: 2.8,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 4,
			DynOverhead: 0.039, PhaseAmp: 0.22, PhasePeriodSec: 7,
			QualityMetric: "cluster purity loss",
			Sites: []approx.Site{
				perf("cf_tree_insert_scan", 0.50, 0.40, 0.50, 0.08, 1.3),
				perf("rebuild_pass", 0.18, 0.15, 0.55, 0.045, 1.3),
			},
		},
		{
			Name: "SNP", Suite: MineBench,
			NominalExecSec: 48, ParallelExp: 0.87,
			LLCMB: 37, BWPerCoreGBs: 2.2,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: true, MaxVariants: 5,
			DynOverhead: 0.024, PhaseAmp: 0.12, PhasePeriodSec: 5,
			QualityMetric: "genotype call accuracy loss",
			// SNP's elision-heavy variants are "particularly effective at
			// reducing the amount of contention in the shared LLC"
			// (paper Sec. 6.1): large traffic shares.
			Sites: []approx.Site{
				elide("marker_table_lock", 0.12, 0.35, 0.40, 0.03, 1.0),
				perf("pairwise_ld_loop", 0.45, 0.38, 0.50, 0.08, 1.3),
				prec("freq_double_to_float", 0.06, 0.18, 0.35, 0.015, 1.0),
			},
		},
		{
			Name: "GeneNet", Suite: MineBench,
			NominalExecSec: 44, ParallelExp: 0.88,
			LLCMB: 36, BWPerCoreGBs: 2.0,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 5,
			DynOverhead: 0.041, PhaseAmp: 0.18, PhasePeriodSec: 6,
			QualityMetric: "network edge F-score loss",
			Sites: []approx.Site{
				perf("edge_score_loop", 0.48, 0.35, 0.50, 0.08, 1.3),
				perf("bootstrap_rounds", 0.22, 0.18, 0.50, 0.05, 1.3),
			},
		},
		{
			Name: "Fuzzy k-means", Suite: MineBench,
			NominalExecSec: 31, ParallelExp: 0.92,
			LLCMB: 60, BWPerCoreGBs: 4.5,
			Sensitivity: interference.Sensitivity{LLC: 0.5, MemBW: 0.7},
			AcceptHints: true, MaxVariants: 6,
			DynOverhead: 0.030, PhaseAmp: 0.15, PhasePeriodSec: 4,
			QualityMetric: "membership matrix RMS error",
			Sites: []approx.Site{
				perf("membership_update_loop", 0.52, 0.48, 0.50, 0.065, 1.35),
				perf("centroid_refine_iters", 0.24, 0.22, 0.55, 0.055, 1.3),
			},
		},
		{
			Name: "SEMPHY", Suite: MineBench,
			NominalExecSec: 47, ParallelExp: 0.86,
			LLCMB: 38, BWPerCoreGBs: 2.2,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: true, MaxVariants: 4,
			DynOverhead: 0.048, PhaseAmp: 0.20, PhasePeriodSec: 8,
			QualityMetric: "tree log-likelihood loss",
			Sites: []approx.Site{
				perf("em_iteration_loop", 0.50, 0.30, 0.55, 0.1, 1.3),
				prec("branch_double_to_float", 0.08, 0.14, 0.40, 0.02, 1.0),
			},
		},
		{
			Name: "SVM-RFE", Suite: MineBench,
			NominalExecSec: 39, ParallelExp: 0.90,
			LLCMB: 38, BWPerCoreGBs: 2.3,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 4,
			DynOverhead: 0.037, PhaseAmp: 0.15, PhasePeriodSec: 5,
			QualityMetric: "feature ranking correlation loss",
			Sites: []approx.Site{
				perf("kernel_eval_loop", 0.52, 0.35, 0.50, 0.08, 1.3),
				perf("rfe_elim_rounds", 0.20, 0.15, 0.55, 0.04, 1.3),
			},
		},
		{
			Name: "PLSA", Suite: MineBench,
			NominalExecSec: 55, ParallelExp: 0.89,
			// The heaviest memcached disruptor in Fig. 1 (~12×): large
			// working set streamed repeatedly during EM iterations.
			LLCMB: 66, BWPerCoreGBs: 4.0,
			Sensitivity: interference.Sensitivity{LLC: 0.5, MemBW: 0.7},
			AcceptHints: true, MaxVariants: 8,
			DynOverhead: 0.055, PhaseAmp: 0.18, PhasePeriodSec: 7,
			QualityMetric: "log-likelihood loss",
			Sites: []approx.Site{
				perf("em_e_step_loop", 0.25, 0.34, 0.52, 0.033, 1.3),
				perf("em_m_step_loop", 0.18, 0.24, 0.50, 0.033, 1.3),
				perf("topic_smooth_loop", 0.08, 0.10, 0.45, 0.033, 1.25),
				prec("posterior_double_to_float", 0.08, 0.16, 0.40, 0.02, 1.0),
			},
		},
		{
			Name: "ScalParC", Suite: MineBench,
			NominalExecSec: 26, ParallelExp: 0.91,
			LLCMB: 35, BWPerCoreGBs: 1.5,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: true, MaxVariants: 3,
			DynOverhead: 0.029, PhaseAmp: 0.12, PhasePeriodSec: 4,
			QualityMetric: "decision-tree accuracy loss",
			Sites: []approx.Site{
				perf("split_point_scan", 0.48, 0.35, 0.50, 0.11, 1.3),
				elide("attr_list_lock", 0.06, 0.08, 0.35, 0.02, 1.0),
			},
		},
		// --------------------------------------------------------- BioPerf
		{
			Name: "Hmmer", Suite: BioPerf,
			NominalExecSec: 41, ParallelExp: 0.93,
			LLCMB: 36, BWPerCoreGBs: 1.9,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: false, MaxVariants: 3,
			DynOverhead: 0.033, PhaseAmp: 0.15, PhasePeriodSec: 6,
			QualityMetric: "hit sensitivity loss",
			Sites: []approx.Site{
				perf("viterbi_band_loop", 0.50, 0.32, 0.50, 0.11, 1.3),
				prec("score_double_to_float", 0.08, 0.12, 0.35, 0.015, 1.0),
			},
		},
		{
			Name: "Blast", Suite: BioPerf,
			NominalExecSec: 29, ParallelExp: 0.94,
			LLCMB: 35, BWPerCoreGBs: 1.6,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: false, MaxVariants: 3,
			DynOverhead: 0.022, PhaseAmp: 0.15, PhasePeriodSec: 5,
			QualityMetric: "alignment hit recall loss",
			Sites: []approx.Site{
				perf("extend_hits_loop", 0.46, 0.30, 0.48, 0.08, 1.3),
				perf("gapped_align_refine", 0.18, 0.12, 0.50, 0.045, 1.25),
			},
		},
		{
			Name: "Fasta", Suite: BioPerf,
			NominalExecSec: 25, ParallelExp: 0.93,
			LLCMB: 35, BWPerCoreGBs: 1.7,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: false, MaxVariants: 3,
			DynOverhead: 0.020, PhaseAmp: 0.12, PhasePeriodSec: 4,
			QualityMetric: "alignment score loss",
			Sites: []approx.Site{
				perf("diagonal_scan_loop", 0.50, 0.34, 0.48, 0.11, 1.3),
				prec("score_int_narrowing", 0.06, 0.10, 0.35, 0.015, 1.0),
			},
		},
		{
			Name: "GRAPPA", Suite: BioPerf,
			NominalExecSec: 37, ParallelExp: 0.88,
			LLCMB: 40, BWPerCoreGBs: 2.4,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 3,
			DynOverhead: 0.043, PhaseAmp: 0.20, PhasePeriodSec: 6,
			QualityMetric: "breakpoint distance error",
			Sites: []approx.Site{
				perf("tsp_bound_loop", 0.52, 0.36, 0.52, 0.1, 1.3),
				elide("median_tree_lock", 0.07, 0.09, 0.40, 0.022, 1.0),
			},
		},
		{
			Name: "ClustaLW", Suite: BioPerf,
			NominalExecSec: 45, ParallelExp: 0.87,
			LLCMB: 44, BWPerCoreGBs: 2.6,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 4,
			DynOverhead: 0.050, PhaseAmp: 0.20, PhasePeriodSec: 7,
			QualityMetric: "alignment SP-score loss",
			Sites: []approx.Site{
				perf("pairwise_align_loop", 0.48, 0.36, 0.50, 0.08, 1.3),
				perf("progressive_refine", 0.20, 0.16, 0.52, 0.04, 1.3),
			},
		},
		{
			Name: "T-Coffee", Suite: BioPerf,
			NominalExecSec: 50, ParallelExp: 0.86,
			LLCMB: 35, BWPerCoreGBs: 1.9,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: false, MaxVariants: 4,
			DynOverhead: 0.058, PhaseAmp: 0.18, PhasePeriodSec: 8,
			QualityMetric: "alignment consistency loss",
			Sites: []approx.Site{
				perf("library_extend_loop", 0.50, 0.30, 0.50, 0.08, 1.3),
				perf("triplet_consistency", 0.18, 0.14, 0.48, 0.045, 1.3),
			},
		},
		{
			Name: "Glimmer", Suite: BioPerf,
			NominalExecSec: 32, ParallelExp: 0.92,
			LLCMB: 35, BWPerCoreGBs: 1.8,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.4},
			AcceptHints: false, MaxVariants: 4,
			DynOverhead: 0.036, PhaseAmp: 0.15, PhasePeriodSec: 5,
			QualityMetric: "gene-call accuracy loss",
			Sites: []approx.Site{
				perf("icm_score_loop", 0.48, 0.32, 0.50, 0.11, 1.3),
				prec("prob_double_to_float", 0.07, 0.12, 0.35, 0.018, 1.0),
			},
		},
		{
			Name: "CE", Suite: BioPerf,
			NominalExecSec: 34, ParallelExp: 0.90,
			LLCMB: 46, BWPerCoreGBs: 2.8,
			Sensitivity: interference.Sensitivity{LLC: 0.6, MemBW: 0.5},
			AcceptHints: false, MaxVariants: 3,
			DynOverhead: 0.046, PhaseAmp: 0.22, PhasePeriodSec: 6,
			QualityMetric: "structure alignment RMSD increase",
			Sites: []approx.Site{
				perf("afp_extend_loop", 0.50, 0.36, 0.52, 0.09, 1.3),
				perf("path_refine_rounds", 0.16, 0.12, 0.50, 0.035, 1.25),
			},
		},
	}
}

// Catalog returns a copy of every catalog profile, in presentation order.
// Each profile carries its own Sites slice, so callers may mutate the result
// freely; the copy costs one allocation per profile plus the outer slice.
func Catalog() []Profile {
	out := make([]Profile, len(catalog))
	for i, p := range catalog {
		out[i] = p.clone()
	}
	return out
}

// ByName returns the profile with the given name (case-sensitive, as printed
// in the paper's figures). It is a map lookup plus one allocation for the
// copy's Sites slice: the returned value shares nothing with the catalog, so
// callers may change any field (a resumed job scales NominalExecSec) or site.
func ByName(name string) (Profile, error) {
	i, ok := catalogIndex[name]
	if !ok {
		return Profile{}, fmt.Errorf("app: unknown application %q", name)
	}
	return catalog[i].clone(), nil
}

// IsCatalog reports whether p is exactly the catalog profile of its name,
// every field and site equal. A custom profile that reuses a catalog name
// (an edited copy, or one parsed from hints) is not.
func IsCatalog(p Profile) bool {
	i, ok := catalogIndex[p.Name]
	return ok && p.equal(catalog[i])
}

// equal compares every field of two profiles, sites element by element.
func (p Profile) equal(q Profile) bool {
	return p.Name == q.Name && p.Suite == q.Suite &&
		p.NominalExecSec == q.NominalExecSec && p.ParallelExp == q.ParallelExp &&
		p.LLCMB == q.LLCMB && p.BWPerCoreGBs == q.BWPerCoreGBs &&
		p.Sensitivity == q.Sensitivity && slices.Equal(p.Sites, q.Sites) &&
		p.AcceptHints == q.AcceptHints && p.MaxVariants == q.MaxVariants &&
		p.DynOverhead == q.DynOverhead && p.PhaseAmp == q.PhaseAmp &&
		p.PhasePeriodSec == q.PhasePeriodSec && p.QualityMetric == q.QualityMetric
}

// Names returns all catalog application names in presentation order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, p := range catalog {
		out[i] = p.Name
	}
	return out
}

// BySuite returns the catalog applications of one suite, in catalog order.
func BySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range catalog {
		if p.Suite == s {
			out = append(out, p.clone())
		}
	}
	return out
}

// MeanDynOverhead returns the average instrumentation overhead across the
// catalog (paper Sec. 6.2: 3.8%).
func MeanDynOverhead() float64 {
	sum := 0.0
	for _, p := range catalog {
		sum += p.DynOverhead
	}
	return sum / float64(len(catalog))
}

// SortedByPressure returns catalog profiles ordered by descending combined
// shared-resource pressure — a rough proxy for how disruptive each app is to
// a colocated service.
func SortedByPressure() []Profile {
	cat := Catalog()
	sort.SliceStable(cat, func(i, j int) bool {
		pi := cat[i].LLCMB + 8*cat[i].BWPerCoreGBs
		pj := cat[j].LLCMB + 8*cat[j].BWPerCoreGBs
		return pi > pj
	})
	return cat
}
