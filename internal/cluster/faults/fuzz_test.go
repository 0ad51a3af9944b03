package faults

import "testing"

// FuzzParse: fault specs arrive from the command line (-faults,
// -shard-faults), so Parse must reject or accept any string without
// panicking, an accepted plan must print to a spec that re-parses to
// the same print, and an injector built from it must answer every
// query.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		ChaosSpec,
		"drop:rate=0.25",
		"delay:rate=0.1,ms=2.5",
		"dup:rate=1",
		"corrupt:rate=0.5",
		"slow:node=3,ms=0.5",
		"crash:node=2,at=7",
		"slow:node=0,ms=1e-9", // rounds to no delay: must be refused, not printed as ms=0
		"slow:node=0,ms=1e300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		printed := p.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its print %q does not parse: %v", spec, printed, err)
		}
		if got := back.String(); got != printed {
			t.Fatalf("Parse(%q) prints %q, which re-parses to %q", spec, printed, got)
		}
		inj := p.NewInjector(1)
		for node := 0; node < 3; node++ {
			inj.Message(node, (node+1)%3, 1, 0)
			inj.Crash(node, 1)
			inj.SlowDelay(node)
		}
	})
}
