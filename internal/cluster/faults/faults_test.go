package faults

import (
	"strings"
	"testing"
	"time"
)

func TestParseValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want Plan
	}{
		{"drop:rate=0.25", Plan{Rules: []Rule{{Kind: Drop, Rate: 0.25}}}},
		{"dup:rate=1", Plan{Rules: []Rule{{Kind: Duplicate, Rate: 1}}}},
		{"corrupt:rate=0.5", Plan{Rules: []Rule{{Kind: Corrupt, Rate: 0.5}}}},
		{"delay:rate=0.1", Plan{Rules: []Rule{{Kind: Delay, Rate: 0.1, Delay: time.Millisecond}}}},
		{"delay:rate=0.1,ms=2.5", Plan{Rules: []Rule{{Kind: Delay, Rate: 0.1, Delay: 2500 * time.Microsecond}}}},
		{"slow:node=3,ms=0.5", Plan{Rules: []Rule{{Kind: Slow, Node: 3, Delay: 500 * time.Microsecond}}}},
		{"crash:node=2,at=7", Plan{Rules: []Rule{{Kind: Crash, Node: 2, At: 7}}}},
		{" drop:rate=0.1 ; crash:node=0,at=1 ", Plan{Rules: []Rule{
			{Kind: Drop, Rate: 0.1}, {Kind: Crash, Node: 0, At: 1}}}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tc.spec, err)
			continue
		}
		if len(got.Rules) != len(tc.want.Rules) {
			t.Errorf("Parse(%q): %d rules, want %d", tc.spec, len(got.Rules), len(tc.want.Rules))
			continue
		}
		for i, r := range got.Rules {
			if r != tc.want.Rules[i] {
				t.Errorf("Parse(%q) rule %d = %+v, want %+v", tc.spec, i, r, tc.want.Rules[i])
			}
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"drop:rate=0.02",
		"delay:rate=0.1,ms=2.5",
		"slow:node=1,ms=0.2",
		"crash:node=2,at=9",
		ChaosSpec,
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", spec, p.String(), err)
		}
		if got, want := back.String(), p.String(); got != want {
			t.Errorf("round trip of %q: %q != %q", spec, got, want)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string // must appear in the error message
	}{
		{"", "no clauses"},
		{";;", "no clauses"},
		{"fizzle:rate=0.1", `unknown kind "fizzle"`},
		{"drop", "requires rate"},
		{"drop:rate=0", "in (0,1]"},
		{"drop:rate=1.5", "in (0,1]"},
		{"drop:rate=lots", "in (0,1]"},
		{"drop:rate=0.1,rate=0.2", `duplicate parameter "rate"`},
		{"drop:rate=0.1,color=red", `unknown parameter "color"`},
		{"drop:rate", "not key=value"},
		{"delay:ms=2", "requires rate"},
		{"delay:rate=0.1,ms=-1", "positive"},
		{"slow:node=0,ms=1e-9", "one nanosecond"},
		{"slow:node=0,ms=1e300", "one hour"},
		{"slow:node=0,ms=Inf", "one hour"},
		{"slow:node=1", "requires ms"},
		{"slow:ms=1", "requires node"},
		{"crash:node=1", "requires at"},
		{"crash:node=1,at=0", ">= 1"},
		{"crash:node=-1,at=3", ">= 0"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error, got none", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

// TestMessageDeterminism: verdicts are a pure function of
// (seed, src, dst, seq, attempt) — two injectors with the same seed
// agree everywhere, and a different seed disagrees somewhere.
func TestMessageDeterminism(t *testing.T) {
	plan, err := Parse("drop:rate=0.2;delay:rate=0.2,ms=1;dup:rate=0.2;corrupt:rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	a := plan.NewInjector(42)
	b := plan.NewInjector(42)
	c := plan.NewInjector(43)
	differ := false
	for seq := int64(0); seq < 50; seq++ {
		for src := 0; src < 3; src++ {
			for dst := 0; dst < 3; dst++ {
				for attempt := 0; attempt < 3; attempt++ {
					va, da := a.Message(src, dst, seq, attempt)
					vb, db := b.Message(src, dst, seq, attempt)
					if va != vb || da != db {
						t.Fatalf("same seed diverged at (%d,%d,%d,%d): %v/%v vs %v/%v",
							src, dst, seq, attempt, va, da, vb, db)
					}
					if vc, _ := c.Message(src, dst, seq, attempt); vc != va {
						differ = true
					}
				}
			}
		}
	}
	if !differ {
		t.Error("seeds 42 and 43 produced identical verdict streams")
	}
	if a.InjectedTotal() == 0 {
		t.Error("no faults injected at rate 0.2 over 1350 attempts")
	}
	if a.InjectedTotal() != b.InjectedTotal() {
		t.Errorf("same-seed injectors disagree on totals: %d vs %d", a.InjectedTotal(), b.InjectedTotal())
	}
}

func TestCrashFiresExactlyOnce(t *testing.T) {
	plan, err := Parse("crash:node=1,at=3")
	if err != nil {
		t.Fatal(err)
	}
	in := plan.NewInjector(1)
	if in.Crash(1, 1) || in.Crash(1, 2) {
		t.Fatal("crash fired before its multiply index")
	}
	if in.Crash(0, 3) {
		t.Fatal("crash fired on the wrong node")
	}
	if !in.Crash(1, 3) {
		t.Fatal("crash did not fire at its multiply index")
	}
	// Consumed: the replayed multiply (same nth) and later ones pass.
	if in.Crash(1, 3) || in.Crash(1, 4) {
		t.Fatal("crash fired twice")
	}
	if got := in.Injected(Crash); got != 1 {
		t.Fatalf("Injected(Crash) = %d, want 1", got)
	}
}

func TestSlowDelay(t *testing.T) {
	plan, err := Parse("slow:node=2,ms=0.5")
	if err != nil {
		t.Fatal(err)
	}
	in := plan.NewInjector(1)
	if d := in.SlowDelay(1); d != 0 {
		t.Fatalf("SlowDelay(1) = %v, want 0", d)
	}
	if d := in.SlowDelay(2); d != 500*time.Microsecond {
		t.Fatalf("SlowDelay(2) = %v, want 500us", d)
	}
	if got := in.Injected(Slow); got != 1 {
		t.Fatalf("Injected(Slow) = %d, want 1", got)
	}
}

func TestChaosPreset(t *testing.T) {
	p, err := Parse(ChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	have := map[Kind]bool{}
	for _, r := range p.Rules {
		have[r.Kind] = true
	}
	for _, k := range []Kind{Drop, Delay, Duplicate, Corrupt, Slow, Crash} {
		if !have[k] {
			t.Errorf("chaos preset lacks a %s rule", k)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if v, _ := in.Message(0, 1, 0, 0); v != VDeliver {
		t.Error("nil injector did not deliver")
	}
	if in.Crash(0, 1) || in.SlowDelay(0) != 0 || in.InjectedTotal() != 0 {
		t.Error("nil injector injected something")
	}
}

func TestIsFault(t *testing.T) {
	err := &Error{Kind: Crash, Node: 2, Src: -1, Dst: -1, Msg: "node 2 crashed"}
	if !IsFault(err) {
		t.Error("IsFault(*Error) = false")
	}
	if IsFault(nil) {
		t.Error("IsFault(nil) = true")
	}
	if !strings.Contains(err.Error(), "faults:") {
		t.Errorf("Error() = %q lacks package prefix", err.Error())
	}
}
