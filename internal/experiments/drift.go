package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/model"
)

// DriftSweepRow is one (drift kind × magnitude × detector latency) cell:
// the same seeded drift schedule run twice — once with online re-profiling
// armed ("online") and once trusting the one-shot profile forever
// ("profile-once", the paper's behaviour) — against the zero-drift
// detector-armed reference.
type DriftSweepRow struct {
	Kind      bubble.DriftKind
	Magnitude float64
	// Detector names the latency arm ("fast" or "slow" preset).
	Detector string

	// TrainTime is the main job under drift (online arm); BaseTime the
	// zero-drift reference. Harvesting the grown bubbles is not free — the
	// re-admitted task's kernels pay their co-location tax, so the online
	// arm trades some training-time increase for its harvest gain (the
	// I-vs-S tradeoff Table 2 prices); the profile-once arm "saves" that
	// tax only by leaving the GPU idle.
	TrainTime time.Duration
	BaseTime  time.Duration

	// Harvested is the online arm's side-task kernel time; OnceHarvested
	// the profile-once arm's under the same drift; BaseHarvest the
	// zero-drift reference. Online beating profile-once is the robustness
	// gap the sweep measures.
	Harvested     time.Duration
	OnceHarvested time.Duration
	BaseHarvest   time.Duration

	// StaleWait is the SLO column — stale-admission overrun: bubble time
	// the task sat admitted into bubbles too small to fit a step (the
	// iterative runtime waits those out; an imperative task would overrun
	// its pause into the grace window instead). OnceStaleWait is the
	// profile-once arm's figure.
	StaleWait     time.Duration
	OnceStaleWait time.Duration
	// GraceKills / OnceGraceKills count pause-overrun kills per arm.
	GraceKills     uint64
	OnceGraceKills uint64

	// Online-arm drift/recovery counters.
	DriftEvents     uint64
	Replans         uint64
	Demotions       uint64
	Revivals        uint64
	StaleAdmissions uint64
	Restarted       uint64
	Parked          uint64
	LostWork        time.Duration
}

// OnlineGain is the harvested-GPU-seconds advantage of online re-profiling
// over profile-once under the same drift.
func (r DriftSweepRow) OnlineGain() time.Duration { return r.Harvested - r.OnceHarvested }

// DriftSweepResult is the full kind × magnitude × detector grid.
type DriftSweepResult struct {
	Opts Options
	Rows []DriftSweepRow
}

// driftSweepMagnitudes is the magnitude axis: f scales affected bubbles by
// (1+f) or 1/(1+f) per kind.
var driftSweepMagnitudes = []float64{1.0, 2.0}

// driftDetectors is the detector-latency axis.
var driftDetectors = []struct {
	name string
	cfg  bubble.DetectorConfig
}{
	{"fast", bubble.FastDetector()},
	{"slow", bubble.SlowDetector()},
}

// driftWorkload places exactly one Graph-SGD instance, so its journey (home
// stage, demotion, re-admission) is attributable.
var driftWorkload = placed(placement{model.GraphSGD, 0})

// driftEventFor builds the sweep's canonical single-event schedule for a
// kind: the drift lands a third of the way through training and targets
// the stage that shrinks the workload's home bubbles while leaving a
// fitting escape stage (the interesting re-planning case).
func driftEventFor(kind bubble.DriftKind, mag float64, horizon time.Duration) bubble.DriftEvent {
	ev := bubble.DriftEvent{At: horizon / 3, Kind: kind, Magnitude: mag}
	switch kind {
	case bubble.DriftFreeze:
		// Freezing stage 2 grows its bubbles and shrinks every other
		// stage's (including the task's home).
		ev.Stage = 2
	case bubble.DriftRebalance:
		// Stage 1 sheds layers; its successor stage 2 absorbs them.
		ev.Stage = 1
	case bubble.DriftStraggler:
		// Stage 1 straggles for half the run; the stages waiting on it
		// inflate.
		ev.Stage = 1
		ev.Window = horizon / 2
	}
	return ev
}

// RunDriftSweep measures the robustness gap between the paper's
// profile-once design and online re-profiling: a drift kind × magnitude ×
// detector-latency grid over a single memory-heavy iterative task
// (Graph-SGD — excluded from stage 0 by Algorithm 1's memory filter, homed
// on stage 1 by least-loaded placement), whose home bubbles every drift
// kind shrinks below its pause-time fit while another stage grows. The
// online arm must notice, demote, and re-admit into the grown bubbles;
// the profile-once arm rides the stale plan down.
func RunDriftSweep(opts Options) (*DriftSweepResult, error) {
	opts.normalize()
	baseCfg := opts.baseConfig(freeride.MethodIterative)
	if baseCfg.Epochs < 12 {
		// The sweep needs room for drift ~1/3 in, slow-arm detection
		// latency, and a post-replan harvest phase.
		baseCfg.Epochs = 12
	}
	// Zero-drift reference: full drift plane wired (empty schedule,
	// detector armed), bit-identical to an unarmed run by the drift oracle.
	refCfg := baseCfg
	refCfg.Drift = &bubble.DriftSchedule{Seed: opts.Seed}
	det := bubble.DetectorConfig{}
	refCfg.Replan = &det
	ref, err := runSession(refCfg, driftWorkload)
	if err != nil {
		return nil, fmt.Errorf("drift sweep baseline: %w", err)
	}
	baseHarvest := harvestedKernelTime(ref)

	// The skeleton is kind × magnitude, kind-major. The profile-once arm is
	// shared by a cell's detector rows, so the cell is the shard unit.
	type driftCell struct {
		ki, mi int
		kind   bubble.DriftKind
		mag    float64
	}
	var cells []driftCell
	for ki, kind := range bubble.AllDriftKinds() {
		for mi, mag := range driftSweepMagnitudes {
			cells = append(cells, driftCell{ki, mi, kind, mag})
		}
	}
	perCell, err := runCells(opts, cells, func(c driftCell) string {
		return fmt.Sprintf("drift sweep %v f=%.2g", c.kind, c.mag)
	}, func(c driftCell) (rows []DriftSweepRow, _ error) {
		seed := opts.Seed*1000 + int64(c.ki)*10 + int64(c.mi)
		sched := &bubble.DriftSchedule{
			Seed:   seed,
			Events: []bubble.DriftEvent{driftEventFor(c.kind, c.mag, ref.TrainTime)},
		}

		// Profile-once arm: same drift, no detector — shared across the
		// detector axis.
		onceCfg := baseCfg
		onceCfg.Drift = sched
		once, err := runSession(onceCfg, driftWorkload)
		if err != nil {
			return nil, fmt.Errorf("once: %w", err)
		}

		for _, d := range driftDetectors {
			cfg := baseCfg
			cfg.Drift = sched
			dc := d.cfg
			cfg.Replan = &dc
			res, err := runSession(cfg, driftWorkload)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			st := res.ManagerStats
			rows = append(rows, DriftSweepRow{
				Kind:            c.kind,
				Magnitude:       c.mag,
				Detector:        d.name,
				TrainTime:       res.TrainTime,
				BaseTime:        ref.TrainTime,
				Harvested:       harvestedKernelTime(res),
				OnceHarvested:   harvestedKernelTime(once),
				BaseHarvest:     baseHarvest,
				StaleWait:       insuffWait(res),
				OnceStaleWait:   insuffWait(once),
				GraceKills:      graceKills(res),
				OnceGraceKills:  graceKills(once),
				DriftEvents:     st.DriftEvents,
				Replans:         st.Replans,
				Demotions:       st.Demotions,
				Revivals:        st.Revivals,
				StaleAdmissions: st.StaleAdmissions,
				Restarted:       st.RestartedTasks,
				Parked:          st.ParkedTasks,
				LostWork:        st.LostWork,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return &DriftSweepResult{Opts: opts, Rows: slices.Concat(perCell...)}, nil
}

func insuffWait(res *freeride.Result) time.Duration {
	var sum time.Duration
	for _, tw := range res.Tasks {
		sum += tw.InsuffWait
	}
	return sum
}

func graceKills(res *freeride.Result) uint64 {
	var sum uint64
	for _, ws := range res.WorkerStats {
		sum += ws.GraceKills
	}
	return sum
}

var driftColumns = []column[DriftSweepRow]{
	{"kind", func(r DriftSweepRow) cell { return text(r.Kind.String()) }, both},
	{"magnitude", func(r DriftSweepRow) cell { return num(r.Magnitude) }, both},
	{"detector", func(r DriftSweepRow) cell { return text(r.Detector) }, both},
	{"harvest_s", func(r DriftSweepRow) cell { return dur(r.Harvested) }, both},
	{"once_harvest_s", func(r DriftSweepRow) cell { return dur(r.OnceHarvested) }, both},
	{"base_harvest_s", func(r DriftSweepRow) cell { return dur(r.BaseHarvest) }, both},
	{"gain_s", func(r DriftSweepRow) cell { return dur(r.OnlineGain()) }, both},
	{"train_s", func(r DriftSweepRow) cell { return dur(r.TrainTime) }, csvOnly},
	{"base_train_s", func(r DriftSweepRow) cell { return dur(r.BaseTime) }, csvOnly},
	{"stale_wait_s", func(r DriftSweepRow) cell { return dur(r.StaleWait) }, both},
	{"once_stale_wait_s", func(r DriftSweepRow) cell { return dur(r.OnceStaleWait) }, both},
	{"grace_kills", func(r DriftSweepRow) cell { return count(r.GraceKills) }, csvOnly},
	{"once_grace_kills", func(r DriftSweepRow) cell { return count(r.OnceGraceKills) }, csvOnly},
	{"drift_events", func(r DriftSweepRow) cell { return count(r.DriftEvents) }, both},
	{"replans", func(r DriftSweepRow) cell { return count(r.Replans) }, both},
	{"demotions", func(r DriftSweepRow) cell { return count(r.Demotions) }, both},
	{"revivals", func(r DriftSweepRow) cell { return count(r.Revivals) }, both},
	{"stale_admissions", func(r DriftSweepRow) cell { return count(r.StaleAdmissions) }, both},
	{"restarted", func(r DriftSweepRow) cell { return count(r.Restarted) }, csvOnly},
	{"parked", func(r DriftSweepRow) cell { return count(r.Parked) }, both},
	{"lostwork_s", func(r DriftSweepRow) cell { return dur(r.LostWork) }, both},
}

// Render prints the sweep as a text table.
func (r *DriftSweepResult) Render() string {
	return renderTable("Drift sweep — online re-profiling vs profile-once "+
		"(zero-drift detector-armed baseline)", driftColumns, r.Rows)
}

// WriteCSV emits one row per sweep cell.
func (r *DriftSweepResult) WriteCSV(w io.Writer) error { return writeCSV(w, driftColumns, r.Rows) }
