package model

import "time"

// Serving closed forms: the memory and timing model of the forward-only
// per-request-batch pipeline cycle (fill / execute / drain). Inference
// carries no gradients or optimizer state — weights are fp16 only, 2 of the
// ~16 bytes/param the training closed form budgets — and the per-micro-batch
// footprint is the KV cache rather than the full activation stash, modeled
// as a quarter of the training activation footprint. Every stage holds the
// same M in-flight micro-batches, so serving memory is uniform across
// stages (no 1F1B warmup pyramid).

// ServeStageMemUsed is the per-stage GPU memory a serving replica holds:
// framework overhead, fp16 weights, and the KV/activation footprint of the
// M in-flight micro-batches.
func (m LLM) ServeStageMemUsed(microBatches int) int64 {
	return m.BaseMem + m.WeightMemPerStage/8 + int64(microBatches)*(m.ActMemPerMB/4)
}

// ServeStageMemAvailable is the headroom a serving stage can offer side
// tasks — the admission input of Algorithm 1 under the serving workload.
func (m LLM) ServeStageMemAvailable(deviceMem int64, microBatches int) int64 {
	avail := deviceMem - m.ServeStageMemUsed(microBatches)
	if avail < 0 {
		return 0
	}
	return avail
}

// ServeFillTime is how long stage s idles at the head of a batch before its
// first micro-batch arrives: s forward+transfer hops.
func (m LLM) ServeFillTime(stage int) time.Duration {
	return time.Duration(stage) * (m.FPPerMB + m.CommLatency)
}

// ServeDrainTime is how long stage s idles at the tail of a batch after its
// last micro-batch leaves: the (S-1-s) hops still draining downstream.
func (m LLM) ServeDrainTime(stage, stages int) time.Duration {
	return time.Duration(stages-1-stage) * (m.FPPerMB + m.CommLatency)
}

// ServeBatchSpan is the makespan of one batch through the forward-only
// pipeline: the (S-1)-hop fill cascade plus M back-to-back forwards on the
// critical stage.
func (m LLM) ServeBatchSpan(stages, microBatches int) time.Duration {
	return time.Duration(stages-1)*(m.FPPerMB+m.CommLatency) +
		time.Duration(microBatches)*m.FPPerMB
}
