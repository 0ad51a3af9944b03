// Package trajio writes simulation trajectories in the XYZ text
// format, one frame per time step, readable by standard molecular
// visualization tools (VMD, OVITO). Particle species are labeled by
// radius so the polydisperse E. coli systems render with size
// information.
package trajio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/particles"
)

// Writer streams XYZ frames.
type Writer struct {
	w     *bufio.Writer
	names map[float64]string
}

// NewWriter wraps an output stream.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), names: map[float64]string{}}
}

// speciesName assigns a stable short label per radius: R1, R2, ...
// in descending radius order as they are first seen.
func (t *Writer) speciesName(r float64) string {
	if n, ok := t.names[r]; ok {
		return n
	}
	n := fmt.Sprintf("R%d", len(t.names)+1)
	t.names[r] = n
	return n
}

// WriteFrame appends one frame. The comment typically carries the
// step index and time.
func (t *Writer) WriteFrame(sys *particles.System, comment string) error {
	if strings.ContainsAny(comment, "\n\r") {
		return fmt.Errorf("trajio: comment must be a single line")
	}
	if _, err := fmt.Fprintf(t.w, "%d\n%s\n", sys.N, comment); err != nil {
		return err
	}
	for i := 0; i < sys.N; i++ {
		p := sys.Pos[i]
		if _, err := fmt.Fprintf(t.w, "%s %.6f %.6f %.6f %.4f\n",
			t.speciesName(sys.Radius[i]), p[0], p[1], p[2], sys.Radius[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered frames.
func (t *Writer) Flush() error { return t.w.Flush() }

// Frame is one parsed trajectory frame.
type Frame struct {
	Comment string
	Pos     [][3]float64
	Radius  []float64
}

// Read parses all frames from an XYZ stream written by Writer.
func Read(r io.Reader) ([]Frame, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var frames []Frame
	for sc.Scan() {
		count, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil {
			return nil, fmt.Errorf("trajio: bad atom count %q", sc.Text())
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("trajio: missing comment line")
		}
		f := Frame{Comment: sc.Text()}
		hasRadius := false
		for i := 0; i < count; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("trajio: truncated frame (%d of %d atoms)", i, count)
			}
			fields := strings.Fields(sc.Text())
			if len(fields) < 4 {
				return nil, fmt.Errorf("trajio: bad atom line %q", sc.Text())
			}
			var p [3]float64
			for c := 0; c < 3; c++ {
				v, err := strconv.ParseFloat(fields[1+c], 64)
				if err != nil {
					return nil, fmt.Errorf("trajio: bad coordinate %q", fields[1+c])
				}
				p[c] = v
			}
			f.Pos = append(f.Pos, p)
			// Radii must be given for all atoms of a frame or none;
			// mixed forms are rejected rather than silently dropped.
			if i == 0 {
				hasRadius = len(fields) >= 5
			} else if hasRadius != (len(fields) >= 5) {
				return nil, fmt.Errorf("trajio: inconsistent radius column at atom %d", i)
			}
			if hasRadius {
				v, err := strconv.ParseFloat(fields[4], 64)
				if err != nil {
					return nil, fmt.Errorf("trajio: bad radius %q", fields[4])
				}
				f.Radius = append(f.Radius, v)
			}
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return frames, nil
}
