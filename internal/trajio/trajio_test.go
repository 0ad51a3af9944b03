package trajio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/particles"
)

func testSystem(t *testing.T) *particles.System {
	t.Helper()
	sys, err := particles.New(particles.Options{N: 25, Phi: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWriteReadRoundTrip(t *testing.T) {
	sys := testSystem(t)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(sys, "step 0"); err != nil {
		t.Fatal(err)
	}
	sys.Pos[0][0] += 1
	if err := w.WriteFrame(sys, "step 1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frames, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	if frames[0].Comment != "step 0" || frames[1].Comment != "step 1" {
		t.Fatal("comments lost")
	}
	if len(frames[0].Pos) != sys.N {
		t.Fatalf("atoms = %d", len(frames[0].Pos))
	}
	for i := 0; i < sys.N; i++ {
		for c := 0; c < 3; c++ {
			if math.Abs(frames[1].Pos[i][c]-sys.Pos[i][c]) > 1e-5 {
				t.Fatal("coordinates lost precision")
			}
		}
		if math.Abs(frames[1].Radius[i]-sys.Radius[i]) > 1e-3 {
			t.Fatal("radii lost")
		}
	}
}

func TestSpeciesLabelsStable(t *testing.T) {
	sys := testSystem(t)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := make([]string, 2)
	for i := range frames {
		if err := w.WriteFrame(sys, "a"); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.String()
		buf.Reset()
	}
	// The same radius must map to the same label across frames, and
	// distinct radii to distinct labels.
	if frames[0] != frames[1] {
		t.Fatal("the second frame labels the species differently")
	}
	seen := map[string]bool{}
	for _, label := range w.names {
		if seen[label] {
			t.Fatalf("duplicate species label %s", label)
		}
		seen[label] = true
	}
	if len(seen) == 0 {
		t.Fatal("no species recorded")
	}
}

func TestRejectsMultilineComment(t *testing.T) {
	sys := testSystem(t)
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteFrame(sys, "bad\ncomment"); err == nil {
		t.Fatal("expected error for multiline comment")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad count":  "x\ncomment\n",
		"truncated":  "3\ncomment\nR1 0 0 0 1\n",
		"bad coords": "1\nc\nR1 a b c 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	frames, err := Read(strings.NewReader(""))
	if err != nil || len(frames) != 0 {
		t.Fatalf("empty input: %v, %d frames", err, len(frames))
	}
}
