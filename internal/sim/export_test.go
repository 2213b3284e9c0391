package sim

// ProbeCounted probes lm under cfg on m through ProbeLoop and reports
// whether the probe simulated: a miss, and only a miss, commits a slot of
// the region's probe table.
func ProbeCounted(m *Machine, lm *LoopModel, cfg Config) (ExecResult, bool, error) {
	next := m.probes[lm].next
	res, err := m.ProbeLoop(lm, cfg)
	return res, m.probes[lm].next != next, err
}
