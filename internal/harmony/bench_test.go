package harmony

import "testing"

// Micro-benchmarks: full tuning-session convergence cost per strategy on a
// Table-I-sized space (7 x 4 x 9) with a smooth objective.

func benchObjective(p Point) float64 {
	d0 := float64(p[0] - 4)
	d1 := float64(p[1] - 2)
	d2 := float64(p[2] - 5)
	return d0*d0 + 2*d1*d1 + 0.5*d2*d2 + 1
}

func benchSession(b *testing.B, mk func(Space) Strategy) {
	b.Helper()
	space, err := NewSpace(Param{"t", 7}, Param{"s", 4}, Param{"c", 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := NewSession(space, mk(space))
		for {
			p, done := sess.Fetch()
			if done {
				break
			}
			sess.Report(benchObjective(p))
		}
	}
}

func BenchmarkSessionExhaustive(b *testing.B) {
	benchSession(b, func(s Space) Strategy { return NewExhaustive(s) })
}

func BenchmarkSessionNelderMead(b *testing.B) {
	benchSession(b, func(s Space) Strategy { return NewNelderMead(s, Point{0, 0, 0}, 0) })
}

func BenchmarkSessionPRO(b *testing.B) {
	benchSession(b, func(s Space) Strategy { return NewPRO(s, Point{0, 0, 0}, 0, 1) })
}

func BenchmarkSessionRandom(b *testing.B) {
	benchSession(b, func(s Space) Strategy { return NewRandom(s, 60, 1) })
}
