package experiments

import (
	"fmt"
	"sync"

	"repro/internal/particles"
)

// sysCache memoizes overlap-free packings, whose relaxation is by far
// the most expensive setup step. Callers receive clones, so cached
// systems are never mutated.
var (
	sysMu    sync.Mutex
	sysCache = map[string]*particles.System{}
)

func cachedSystem(n int, phi float64, seed uint64) (*particles.System, error) {
	key := fmt.Sprintf("%d:%v:%d", n, phi, seed)
	sysMu.Lock()
	defer sysMu.Unlock()
	if s, ok := sysCache[key]; ok {
		return s.Clone(), nil
	}
	s, err := particles.New(particles.Options{N: n, Phi: phi, Seed: seed})
	if err != nil {
		return nil, err
	}
	sysCache[key] = s
	return s.Clone(), nil
}
