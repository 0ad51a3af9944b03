package blas

import "math"

// Vec3 is a 3-component vector, used for particle positions and
// displacement directions.
type Vec3 [3]float64

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s*a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a[0], s * a[1], s * a[2]} }

// Dot returns the inner product of a and b.
func (a Vec3) Dot(b Vec3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Norm returns the Euclidean length of a.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Mat3 is a 3x3 matrix stored row-major. It is the block type of the
// resistance matrix: each Mat3 couples the three velocity components
// of one particle to the three force components of another.
type Mat3 [9]float64

// Ident3 returns the 3x3 identity.
func Ident3() Mat3 { return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1} }

// At returns element (i, j) of m.
func (m Mat3) At(i, j int) float64 { return m[3*i+j] }

// ScaleM returns s*m.
func (m Mat3) ScaleM(s float64) Mat3 {
	var r Mat3
	for i := range m {
		r[i] = s * m[i]
	}
	return r
}

// MulV returns m*v.
func (m Mat3) MulV(v Vec3) Vec3 {
	return Vec3{
		m[0]*v[0] + m[1]*v[1] + m[2]*v[2],
		m[3]*v[0] + m[4]*v[1] + m[5]*v[2],
		m[6]*v[0] + m[7]*v[1] + m[8]*v[2],
	}
}

// Transpose3 returns m^T.
func (m Mat3) Transpose3() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Outer returns the outer product d*d^T for a direction d. Combined
// with the identity it builds the standard hydrodynamic tensor form
//
//	A = Xa * d d^T + Ya * (I - d d^T)
//
// that resolves a pair interaction into squeeze (along the line of
// centers) and shear (transverse) components.
func Outer(d Vec3) Mat3 {
	return Mat3{
		d[0] * d[0], d[0] * d[1], d[0] * d[2],
		d[1] * d[0], d[1] * d[1], d[1] * d[2],
		d[2] * d[0], d[2] * d[1], d[2] * d[2],
	}
}

// AxialTensor builds xa*(d d^T) + ya*(I - d d^T) for a unit direction
// d — the squeeze/shear decomposition used by both the lubrication
// resistance and the Rotne-Prager mobility tensors.
func AxialTensor(xa, ya float64, d Vec3) Mat3 {
	dd := Outer(d)
	var r Mat3
	id := Ident3()
	for i := range r {
		r[i] = xa*dd[i] + ya*(id[i]-dd[i])
	}
	return r
}
