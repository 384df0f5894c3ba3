package sim

// BatchFixedFrac is the per-invocation fixed fraction of a step's compute
// latency under the sublinear batch cost model shared by the simulator and
// the runtime: invoking a step costs BatchFixedFrac of its single-image
// latency once (kernel launch, weight residency, im2col setup — the
// overheads batching amortises) plus the remaining (1 - BatchFixedFrac)
// per image in the batch. The value is a deliberately conservative middle
// ground: real CNN step batching on edge GPUs amortises anywhere from ~30%
// to ~70% of the per-invocation cost depending on layer shape, and both
// engines must use the same constant for the fidelity comparison to be
// about scheduling, not about calibration.
const BatchFixedFrac = 0.5

// BatchedComputeSec returns the compute seconds one invocation of a step
// takes when it processes k images at once: comp for k <= 1 (bit-identical
// to the unbatched path — no float operations are applied), and
// comp * (BatchFixedFrac + (1-BatchFixedFrac)*k) otherwise. The marginal
// cost of joining an open batch is therefore comp * (1 - BatchFixedFrac).
func BatchedComputeSec(comp float64, k int) float64 {
	if k <= 1 {
		return comp
	}
	return comp * (BatchFixedFrac + float64((1-BatchFixedFrac)*float64(k)))
}
