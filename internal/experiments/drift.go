package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
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
	baseCfg := opts.baseConfig()
	baseCfg.Method = freeride.MethodIterative
	if baseCfg.Epochs < 12 {
		// The sweep needs room for drift ~1/3 in, slow-arm detection
		// latency, and a post-replan harvest phase.
		baseCfg.Epochs = 12
	}
	task := model.GraphSGD

	// Zero-drift reference: full drift plane wired (empty schedule,
	// detector armed), bit-identical to an unarmed run by the drift oracle.
	refCfg := baseCfg
	refCfg.Drift = &bubble.DriftSchedule{Seed: opts.Seed}
	det := bubble.DetectorConfig{}
	refCfg.Replan = &det
	ref, err := runDriftCell(refCfg, task)
	if err != nil {
		return nil, fmt.Errorf("drift sweep baseline: %w", err)
	}
	baseHarvest := harvestedKernelTime(ref)

	// The skeleton is kind × magnitude, kind-major. The profile-once arm is
	// shared by a cell's detector rows, so the cell is the shard unit.
	kinds, mags := bubble.AllDriftKinds(), driftSweepMagnitudes
	rows, err := runCells(opts, len(kinds)*len(mags), func(i int) string {
		return fmt.Sprintf("drift sweep %v f=%.2g", kinds[i/len(mags)], mags[i%len(mags)])
	}, func(i int) (rows []DriftSweepRow, _ error) {
		ki, mi := i/len(mags), i%len(mags)
		kind, mag := kinds[ki], mags[mi]
		seed := opts.Seed*1000 + int64(ki)*10 + int64(mi)
		sched := &bubble.DriftSchedule{
			Seed:   seed,
			Events: []bubble.DriftEvent{driftEventFor(kind, mag, ref.TrainTime)},
		}

		// Profile-once arm: same drift, no detector — shared across the
		// detector axis.
		onceCfg := baseCfg
		onceCfg.Drift = sched
		once, err := runDriftCell(onceCfg, task)
		if err != nil {
			return nil, fmt.Errorf("once: %w", err)
		}

		for _, d := range driftDetectors {
			cfg := baseCfg
			cfg.Drift = sched
			dc := d.cfg
			cfg.Replan = &dc
			res, err := runDriftCell(cfg, task)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			st := res.ManagerStats
			rows = append(rows, DriftSweepRow{
				Kind:            kind,
				Magnitude:       mag,
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
	return &DriftSweepResult{Opts: opts, Rows: rows}, nil
}

// runDriftCell is runOne for a single-instance workload: the sweep places
// exactly one task so its journey (home stage, demotion, re-admission) is
// attributable.
func runDriftCell(cfg freeride.Config, task model.TaskProfile) (*freeride.Result, error) {
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := sess.Submit(task, 0); err != nil {
		return nil, fmt.Errorf("submit %s: %w", task.Name, err)
	}
	res, err := sess.Run()
	if err != nil {
		return nil, err
	}
	res.CostReport(tNo)
	return res, nil
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

// Render prints the sweep as a text table.
func (r *DriftSweepResult) Render() string {
	t := &Table{
		Title: "Drift sweep — online re-profiling vs profile-once " +
			"(zero-drift detector-armed baseline)",
		Header: []string{"kind", "mag", "detector", "harvest_s", "once_s",
			"base_s", "gain_s", "stale_wait_s", "once_stale_s", "detects",
			"replans", "demoted", "revived", "stale_adm", "parked", "lostwork_s"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Kind.String(), fmtF(row.Magnitude), row.Detector,
			secs(row.Harvested), secs(row.OnceHarvested), secs(row.BaseHarvest),
			secs(row.OnlineGain()),
			secs(row.StaleWait), secs(row.OnceStaleWait),
			strconv.FormatUint(row.DriftEvents, 10),
			strconv.FormatUint(row.Replans, 10),
			strconv.FormatUint(row.Demotions, 10),
			strconv.FormatUint(row.Revivals, 10),
			strconv.FormatUint(row.StaleAdmissions, 10),
			strconv.FormatUint(row.Parked, 10),
			secs(row.LostWork),
		)
	}
	return t.Render()
}

// WriteCSV emits one row per sweep cell.
func (r *DriftSweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "magnitude", "detector", "harvest_s",
		"once_harvest_s", "base_harvest_s", "gain_s", "train_s", "base_train_s",
		"stale_wait_s", "once_stale_wait_s", "grace_kills", "once_grace_kills",
		"drift_events", "replans", "demotions", "revivals", "stale_admissions",
		"restarted", "parked", "lostwork_s"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Kind.String(), fmtF(row.Magnitude), row.Detector,
			fmtF(row.Harvested.Seconds()), fmtF(row.OnceHarvested.Seconds()),
			fmtF(row.BaseHarvest.Seconds()), fmtF(row.OnlineGain().Seconds()),
			fmtF(row.TrainTime.Seconds()), fmtF(row.BaseTime.Seconds()),
			fmtF(row.StaleWait.Seconds()), fmtF(row.OnceStaleWait.Seconds()),
			strconv.FormatUint(row.GraceKills, 10),
			strconv.FormatUint(row.OnceGraceKills, 10),
			strconv.FormatUint(row.DriftEvents, 10),
			strconv.FormatUint(row.Replans, 10),
			strconv.FormatUint(row.Demotions, 10),
			strconv.FormatUint(row.Revivals, 10),
			strconv.FormatUint(row.StaleAdmissions, 10),
			strconv.FormatUint(row.Restarted, 10),
			strconv.FormatUint(row.Parked, 10),
			fmtF(row.LostWork.Seconds()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
