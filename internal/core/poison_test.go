package core_test

import (
	"math"
	"reflect"
	"unsafe"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/particles"
	"repro/internal/sd"
)

// poisonConf is an SD configuration whose Recycle fills the matrix with
// NaN before passing it on. A stepper that hands a matrix back and then
// reads it — through an operator, a preconditioner set-up, an audit —
// multiplies by NaN and loses its pins; one that does not keeps every
// bit, because the assembler overwrites all values of the arrays it
// reuses.
type poisonConf struct{ core.Configuration }

func poisoned(c core.Configuration) core.Configuration { return poisonConf{c} }
func plain(c core.Configuration) core.Configuration    { return c }

func (p poisonConf) Recycle(a *bcrs.Matrix) {
	// Matrix has no mutator, on purpose; the test reaches its values.
	v := reflect.ValueOf(a).Elem().FieldByName("vals")
	vals := unsafe.Slice((*float64)(v.UnsafePointer()), v.Len())
	for i := range vals {
		vals[i] = math.NaN()
	}
	p.Configuration.Recycle(a)
}

func (p poisonConf) Displaced(u []float64, dt float64) core.Configuration {
	return poisonConf{p.Configuration.Displaced(u, dt)}
}

// systemOf returns the particle system of an SD configuration, wrapped
// or not.
func systemOf(c core.Configuration) *particles.System {
	if p, ok := c.(poisonConf); ok {
		c = p.Configuration
	}
	return c.(*sd.Conf).Sys
}
