package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeValues are the inputs where an operation order, a fused multiply-add
// or a select would show: signed zeros, infinities, NaN, subnormals, and
// magnitudes whose products overflow. A fuzz input names one by its index.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
}

// draw turns bytes into a kernel case, so the seeded property test and the
// fuzzer share one generator. shape makes the choices (which kernel, a
// length, α, the kind of bound), one little-endian uint16 each, 0 once it
// runs out. vals decides operand by operand: a byte below len(edgeValues)
// is that edge value, 0xff followed by eight bytes is those bits, and
// anything else, or nothing left, is a draw from the generator seeded by
// state, whose full mantissas make every product round.
type draw struct {
	shape, vals []byte
	state       uint64
}

func (d *draw) pick(n int) int {
	if len(d.shape) < 2 {
		d.shape = nil
		return 0
	}
	v := int(binary.LittleEndian.Uint16(d.shape))
	d.shape = d.shape[2:]
	return v % n
}

func (d *draw) float() float64 {
	if len(d.vals) == 0 {
		return d.normal()
	}
	t := d.vals[0]
	d.vals = d.vals[1:]
	switch {
	case int(t) < len(edgeValues):
		return edgeValues[t]
	case t == 0xff && len(d.vals) >= 8:
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.vals))
		d.vals = d.vals[8:]
		return v
	}
	return d.normal()
}

// normal is splitmix64's next output mapped to [-4, 4).
func (d *draw) normal() float64 {
	d.state += 0x9e3779b97f4a7c15
	z := d.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return (float64(z>>11)/(1<<53) - 0.5) * 8
}

func (d *draw) slice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = d.float()
	}
	return s
}

func (d *draw) slices(count, n int) [][]float64 {
	s := make([][]float64, count)
	for i := range s {
		s[i] = d.slice(n)
	}
	return s
}

// seeded is a draw whose choices come from rng and whose operands are edge
// values with probability density/256.
func seeded(rng *rand.Rand, density int) *draw {
	shape := make([]byte, 16)
	rng.Read(shape)
	vals := make([]byte, 2600)
	rng.Read(vals)
	for i, b := range vals {
		if int(b) < density {
			vals[i] = b % byte(len(edgeValues))
		} else {
			vals[i] = 0x80
		}
	}
	return &draw{shape: shape, vals: vals, state: rng.Uint64()}
}

// operands are one kernel case: the slices it reads and writes, its
// scalars, and the index slices it only reads.
type operands struct {
	s    [][]float64
	f    []float64
	ints [][]int
}

func (o operands) clone() operands {
	c := operands{f: o.f, ints: o.ints}
	for _, s := range o.s {
		c.s = append(c.s, slices.Clone(s))
	}
	return c
}

// kernel is one row of the equivalence table: gen draws a case, and run
// applies the kernel to it and returns everything the kernel wrote.
type kernel struct {
	name string
	gen  func(d *draw) operands
	run  func(o operands) []float64
}

// refs holds, by kernel name, a spelled-out loop that computes what run
// returns; both paths of such a kernel must give its bits as well.
var refs = map[string]func(o operands) []float64{
	"AddScaledRows":        refRows,
	"AddScaledRowsStrided": refRows,
}

// rowCase draws an AddScaledRows case, o (n), b (k×n) and c, with a
// coefficient stride below maxStride: n up to 70 and k up to 40 reach every
// n mod 16, n mod 4 and k mod 4, k = 0 included. zeros sets blocks of four
// coefficients, or single ones, to ±0 (a zero block of b's rows is skipped,
// so an infinite or NaN row under it is never read into o); otherwise the
// coefficients come from the draw, edge values included.
func rowCase(maxStride int) func(d *draw) operands {
	return func(d *draw) operands {
		n, k, stride, zeros := d.pick(71), d.pick(41), 1+d.pick(maxStride), d.pick(4)
		o, b, c := d.slice(n), d.slice(k*n), d.slice(max(k*stride, 1))
		for p := 0; p < k; p++ {
			switch u := d.normal(); {
			case zeros == 1 && (p/4)%2 == 0, zeros == 2 && u < 0, zeros == 3:
				c[p*stride] = math.Copysign(0, u)
			}
		}
		return operands{s: [][]float64{o, b, c}, ints: [][]int{{k, stride}}}
	}
}

func runRows(o operands) []float64 {
	AddScaledRows(o.s[0], o.s[1], o.s[2], o.ints[0][0], o.ints[0][1])
	return o.s[0]
}

// refRows spells AddScaledRows out as two row loops run in turn: for each
// block of four rows whose coefficients are not all zero, o[j] + (((c0·b0[j]
// + c1·b1[j]) + c2·b2[j]) + c3·b3[j]), then for each last row whose
// coefficient is not zero, o[j] + c·b[j].
func refRows(op operands) []float64 {
	o, b, c := op.s[0], op.s[1], op.s[2]
	k, stride, n := op.ints[0][0], op.ints[0][1], len(op.s[0])
	p := 0
	for ; p+4 <= k; p += 4 {
		c0, c1, c2, c3 := c[p*stride], c[(p+1)*stride], c[(p+2)*stride], c[(p+3)*stride]
		if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
			continue
		}
		b0, b1, b2, b3 := b[p*n:], b[(p+1)*n:], b[(p+2)*n:], b[(p+3)*n:]
		for j := range o {
			o[j] += float64(c0*b0[j]) + float64(c1*b1[j]) + float64(c2*b2[j]) + float64(c3*b3[j])
		}
	}
	for ; p < k; p++ {
		cp := c[p*stride]
		if cp == 0 {
			continue
		}
		for j := range o {
			o[j] += float64(cp * b[p*n+j])
		}
	}
	return o
}

// leakyAlphas are LeakyReLU slopes that show a swapped select: a slope of
// 0 erases the negative side, −1.5 flips its sign and 1e308 overflows it.
var leakyAlphas = []float64{0.01, 0.2, 0, -1.5, 1e308}

// dist8 spells out Dist8First's distance: ((d0²+d4²) + (d1²+d5²)) +
// ((d2²+d6²) + (d3²+d7²)), every square rounded.
func dist8(q, v []float64) float64 {
	var s [4]float64
	for j := range s {
		d, e := q[j]-v[j], q[j+4]-v[j+4]
		s[j] = float64(d*d) + float64(e*e)
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// poolWindows returns the window corners and element offsets of a
// non-overlapping size×size max-pool over a c×h×w map, as nn.MaxPool2d
// builds them: corners channel by channel and row by row, offsets row by
// row from the corner.
func poolWindows(c, h, w, size int) (base, offs []int) {
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y += size {
			for z := 0; z < w; z += size {
				base = append(base, ch*h*w+y*w+z)
			}
		}
	}
	for dy := 0; dy < size; dy++ {
		for dz := 0; dz < size; dz++ {
			offs = append(offs, dy*w+dz)
		}
	}
	return base, offs
}

// kernels is the table the seeded test, the fuzzer and the corpus index:
// append, never reorder.
var kernels = []kernel{
	{"AddScaledRows", rowCase(1), runRows},
	{"AddScaledRowsStrided", rowCase(5), runRows},
	{"DotPairs4", func(d *draw) operands {
		return operands{s: d.slices(5, d.pick(301))}
	}, func(o operands) []float64 {
		var sums [8]float64
		DotPairs4(&sums, o.s[0], o.s[1], o.s[2], o.s[3], o.s[4])
		return sums[:]
	}},
	{"Leaky", func(d *draw) operands {
		n, alpha, backward := d.pick(301), leakyAlphas[d.pick(len(leakyAlphas))], d.pick(2) == 1
		x, g := d.slice(n), []float64(nil)
		if backward {
			g = d.slice(n)
		} else {
			g = x // the forward pass: the gradient is the input
		}
		return operands{s: [][]float64{make([]float64, n), x, g}, f: []float64{alpha}}
	}, func(o operands) []float64 {
		Leaky(o.s[0], o.s[1], o.s[2], o.f[0])
		return o.s[0]
	}},
	{"Adam", func(d *draw) operands {
		n, decay, moments := d.pick(301), []float64{0, 1e-4}[d.pick(2)], d.pick(2) == 1
		s := d.slices(2, n) // weights, gradients
		if moments {
			s = append(s, d.slices(2, n)...)
		} else {
			s = append(s, make([]float64, n), make([]float64, n))
		}
		return operands{s: s, f: []float64{decay}}
	}, func(o operands) []float64 {
		w, g, m, v := o.s[0], o.s[1], o.s[2], o.s[3]
		const lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
		for step := 1.0; step <= 3; step++ {
			c1, c2 := 1-math.Pow(b1, step), 1-math.Pow(b2, step)
			Adam(w, m, v, g, o.f[0], b1, 1-b1, b2, 1-b2, lr/c1, 1/c2, eps)
		}
		return slices.Concat(w, m, v)
	}},
	{"Dist8First", func(d *draw) operands {
		n, kind := d.pick(301), d.pick(6)
		q, slab := d.slice(8), d.slice(8*n)
		var bound float64
		switch whole := n / 4 * 4; {
		case kind == 1:
			bound = math.Inf(1)
		case kind == 2:
			bound = math.NaN()
		case kind == 3 && whole > 0: // a tie: equal is not below
			k := d.pick(whole)
			bound = dist8(q, slab[k*8:])
		case kind == 4: // the nearest vector's own distance: below only under ≤
			bound = math.Inf(1)
			for k := 0; k < whole; k++ {
				bound = min(bound, dist8(q, slab[k*8:]))
			}
		case kind == 5:
			bound = d.float()
		default:
			bound = math.Abs(d.normal()) * 16
		}
		return operands{s: [][]float64{q, slab}, f: []float64{bound}}
	}, func(o operands) []float64 {
		return []float64{float64(Dist8First((*[8]float64)(o.s[0]), o.s[1], o.f[0]))}
	}},
	{"MaxPool", func(d *draw) operands {
		c, size, oh, ow := 1+d.pick(3), 1+d.pick(4), 1+d.pick(6), 1+d.pick(9)
		kind, withAt := d.pick(3), d.pick(2)
		base, offs := poolWindows(c, oh*size, ow*size, size)
		x := d.slice(c * oh * size * ow * size)
		if kind > 0 { // three values, so windows tie; kind 2 makes one NaN, first in some windows, later in others
			palette := d.slice(3)
			if kind == 2 {
				palette[0] = math.NaN()
			}
			for i := range x {
				x[i] = palette[int(d.normal()+4)*3/8]
			}
		}
		return operands{s: [][]float64{make([]float64, len(base)), x}, f: []float64{float64(withAt)}, ints: [][]int{base, offs}}
	}, func(o operands) []float64 {
		dst, at := o.s[0], []int(nil)
		if o.f[0] == 1 {
			at = make([]int, len(dst))
		}
		MaxPool(dst, at, o.s[1], o.ints[0], o.ints[1])
		out := slices.Clone(dst)
		for _, a := range at {
			out = append(out, float64(a))
		}
		return out
	}},
	{"NonZero", func(d *draw) operands {
		n, zeros := d.pick(301), d.pick(4)
		x := d.slice(n)
		for i := range x { // a share of ±0 that rises with zeros: none, 1 in 4, 1 in 2, 8 in 9
			if u := d.normal() + 4; u < []float64{0, 2, 4, 64.0 / 9}[zeros] {
				x[i] = math.Copysign(0, u-1)
			}
		}
		return operands{s: [][]float64{x}}
	}, func(o operands) []float64 {
		idx := make([]int, len(o.s[0]))
		n := NonZero(idx, o.s[0])
		out := []float64{float64(n)}
		for _, p := range idx[:n] {
			out = append(out, float64(p))
		}
		return out
	}},
	{"DotPairs4At", func(d *draw) operands {
		s := d.slices(5, d.pick(301))
		var pairs []int // every pair in turn, some, or some twice and out of order
		for p, kind := 0, d.pick(3); p+1 < len(s[0]); p += 2 {
			if kind == 0 || d.normal() < -2 {
				pairs = append(pairs, p)
			}
			if kind == 2 && d.normal() > 3 {
				pairs = append(pairs, p/2&^1)
			}
		}
		return operands{s: s, ints: [][]int{pairs}}
	}, func(o operands) []float64 {
		var sums [8]float64
		DotPairs4At(&sums, o.s[0], o.s[1], o.s[2], o.s[3], o.s[4], o.ints[0])
		return sums[:]
	}},
}

// sameBits returns the first index where got and want differ in their bits,
// any NaN equal to any NaN, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// checkPaths runs k on the portable path and on the AVX2 path, each on its
// own copy of c, and fails t unless the outputs have the same bits, and the
// bits of k's reference loop where it has one.
func checkPaths(t *testing.T, k kernel, c operands) {
	t.Helper()
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = false
	want := k.run(c.clone())
	if refLoop := refs[k.name]; refLoop != nil {
		ref := refLoop(c.clone())
		if i := sameBits(want, ref); i >= 0 {
			t.Fatalf("%s over %d elements, ints %v: output %d is %x on the portable path, %x in the reference loop",
				k.name, len(c.s[0]), c.ints, i, want[i], ref[i])
		}
	}
	useAVX2 = true
	got := k.run(c.clone())
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s over %d elements, scalars %v: output %d is %x with AVX2, %x without",
			k.name, len(c.s[0]), c.f, i, got[i], want[i])
	}
}

func requireAVX2(tb testing.TB) {
	if !hasAVX2() {
		tb.Skip("no AVX2 on this CPU: the Go loops are the only path")
	}
}

// hostPaths lists the values of useAVX2 this host can run.
func hostPaths() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

var pathNames = map[bool]string{false: "portable", true: "avx2"}

// onPaths runs f as a subtest on each path this host has.
func onPaths(t *testing.T, f func(t *testing.T)) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	for _, avx2 := range hostPaths() {
		useAVX2 = avx2
		t.Run(pathNames[avx2], f)
	}
}

// TestKernelsMatchPortable is every kernel's contract as a property: over
// lengths 0 to 300 (every remainder mod 4, odd pair loops), operands with
// no, a few or many edge values, and each kernel's scalar table, the AVX2
// path gives the portable path's bits.
func TestKernelsMatchPortable(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(61))
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < 1500; trial++ {
				checkPaths(t, k, k.gen(seeded(rng, []int{0, 5, 77}[trial%3])))
			}
		})
	}
}

// FuzzKernels runs both paths of the kernel the input picks on the
// operands it draws (see draw) and requires the same bits.
func FuzzKernels(f *testing.F) {
	requireAVX2(f)
	f.Fuzz(func(t *testing.T, shape, vals []byte, seed uint64) {
		d := &draw{shape: shape, vals: vals, state: seed}
		k := kernels[d.pick(len(kernels))]
		checkPaths(t, k, k.gen(d))
	})
}

// TestDist8FirstHasDist2Bits pins the distance of every lane to dist8's
// bits. vecindex rechecks a candidate the kernel reports, so a distance a
// bit too small costs only a recheck and no scan test sees it; here a
// vector alone among NaN fillers must miss a bound equal to its distance
// and meet the next float up, which only that exact value does.
func TestDist8FirstHasDist2Bits(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		nanVec := []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0}
		for trial := 0; trial < 4000; trial++ {
			d := seeded(rng, []int{0, 26}[trial%2])
			q, v := d.slice(8), d.slice(8)
			dist := dist8(q, v)
			lane := trial % 4
			var slab []float64
			for i := 0; i < 4; i++ {
				if i == lane {
					slab = append(slab, v...)
				} else {
					slab = append(slab, nanVec...)
				}
			}
			up, wantUp := math.Nextafter(dist, math.Inf(1)), lane
			if math.IsNaN(dist) || math.IsInf(dist, 1) {
				wantUp = -1
			}
			if got := Dist8First((*[8]float64)(q), slab, dist); got != -1 {
				t.Fatalf("q=%v v=%v lane %d: kernel distance below %x", q, v, lane, dist)
			}
			if got := Dist8First((*[8]float64)(q), slab, up); got != wantUp {
				t.Fatalf("q=%v v=%v lane %d: kernel distance above %x (got %d)", q, v, lane, dist, got)
			}
		}
	})
}

// TestDist8FirstFindsFirstBelowBound checks the kernel against the spelled
// out scan: the first vector of a whole group of four strictly below the
// bound, with NaN never qualifying and the tail never read.
func TestDist8FirstFindsFirstBelowBound(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for trial := 0; trial < 3000; trial++ {
			d := seeded(rng, []int{0, 13, 77}[trial%3])
			d.shape[0], d.shape[1] = byte(rng.Intn(40)), 0 // up to 39 vectors
			c := kernels[5].gen(d)
			q, slab, bound := c.s[0], c.s[1], c.f[0]
			want := -1
			for i := 0; i < len(slab)/32*4; i++ {
				if dist8(q, slab[i*8:]) < bound {
					want = i
					break
				}
			}
			if got := Dist8First((*[8]float64)(q), slab, bound); got != want {
				t.Fatalf("trial %d, %d vectors, bound %g: Dist8First = %d, want %d", trial, len(slab)/8, bound, got, want)
			}
		}
	})
}

// TestLeakySelectsBySign spells out the select on both paths: x > 0 takes
// the gradient as is, anything else (±0 and NaN included) scales it by α.
func TestLeakySelectsBySign(t *testing.T) {
	x := []float64{1, -1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	g := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	want := []float64{2, -3, -3, -3, -3, 2, -3, 2}
	onPaths(t, func(t *testing.T) {
		got := make([]float64, len(x))
		Leaky(got, x, g, -1.5)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("x=%v: %v, want %v", x[i], got[i], want[i])
		}
	})
}

// kernelCall is one call of a kernel on operands drawn once.
type kernelCall struct {
	name string
	f    func()
}

// kernelCalls calls each kernel at length n (Dist8First: n vectors;
// AddScaledRows: a 64-element row over n rows, the embedder's first layer).
func kernelCalls(n int) []kernelCall {
	d := &draw{state: 1}
	s := d.slices(5, n)
	slab := d.slice(8 * n)
	var sums [8]float64
	fmap, pooled := d.slice(8*225), make([]float64, 200)
	base, offs := poolWindows(8, 15, 15, 3)
	at := make([]int, len(base))
	grad, pos, pairs := make([]float64, n), make([]int, n), []int(nil)
	for i := 0; i < n; i += 9 { // one non-zero in nine, as behind a 3×3 max-pool
		grad[i] = 1
		if i+1 < n {
			pairs = append(pairs, i&^1)
		}
	}
	rowB := d.slice(n * 64)
	return []kernelCall{
		{"AddScaledRows", func() { AddScaledRows(s[0][:64], rowB, s[1], n, 1) }},
		{"DotPairs4", func() { DotPairs4(&sums, s[0], s[1], s[2], s[3], s[4]) }},
		{"Leaky", func() { Leaky(s[0], s[1], s[2], 0.01) }},
		{"Adam", func() { Adam(s[0], s[1], s[2], s[3], 0, 0.9, 0.1, 0.999, 1e-3, 1e-3, 1, 1e-8) }},
		{"Dist8First", func() { Dist8First((*[8]float64)(s[4]), slab, 0) }},
		{"MaxPool", func() { MaxPool(pooled, at, fmap, base, offs) }},
		{"NonZero", func() { NonZero(pos, grad) }},
		{"DotPairs4At", func() { DotPairs4At(&sums, grad, s[1], s[2], s[3], s[4], pairs) }},
	}
}

// TestKernelsAllocateNothing holds every kernel to zero allocations on both
// paths, at a length with a tail.
func TestKernelsAllocateNothing(t *testing.T) {
	calls := kernelCalls(201)
	onPaths(t, func(t *testing.T) {
		for _, c := range calls {
			if got := testing.AllocsPerRun(10, c.f); got != 0 {
				t.Errorf("%s allocates %.0f times per call", c.name, got)
			}
		}
	})
}

// BenchmarkKernels times each kernel on each path this host has, at 225
// elements — a BraggNN feature map's row — and 225 vectors for Dist8First,
// which never finds one below its bound of 0 and so scans them all.
// MaxPool selects a BraggNN sample's 200 3×3 windows over its 8×15×15 map.
func BenchmarkKernels(b *testing.B) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	for _, c := range kernelCalls(225) {
		for _, avx2 := range hostPaths() {
			b.Run(c.name+"/"+pathNames[avx2], func(b *testing.B) {
				useAVX2 = avx2
				for i := 0; i < b.N; i++ {
					c.f()
				}
			})
		}
	}
}

// TestShortOperandsPanic: an operand shorter than the first slice is a
// bounds panic on both paths, never a read past its end. MaxPool's window
// at 4 reaches element 7 of a 7-element x, and DotPairs4At's pair at 7
// element 8 of an 8-element a.
func TestShortOperandsPanic(t *testing.T) {
	long, short := make([]float64, 8), make([]float64, 7)
	onPaths(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"AddScaledRows short b": func() { AddScaledRows(long[:4], short, long, 2, 1) },
			"AddScaledRows short c": func() { AddScaledRows(long[:4], long, short, 2, 7) },
			"DotPairs4":             func() { DotPairs4(new([8]float64), long, long, short, long, long) },
			"Leaky":                 func() { Leaky(long, long, short, 1) },
			"Adam":                  func() { Adam(long, long, short, long, 0, 0, 0, 0, 0, 0, 0, 0) },
			"MaxPool":               func() { MaxPool(long[:4], nil, short, []int{0, 1, 2, 4}, []int{0, 1, 2, 3}) },
			"NonZero":               func() { NonZero(make([]int, 7), long) },
			"DotPairs4At": func() {
				DotPairs4At(new([8]float64), long, long, long, long, long, []int{0, 6, 7})
			},
			"DotPairs4At short b": func() { DotPairs4At(new([8]float64), long, long, short, long, long, []int{0}) },
			"DotPairs4At below a": func() { DotPairs4At(new([8]float64), long, long, long, long, long, []int{0, -2}) },
			"MaxPool below x":     func() { MaxPool(long[:4], nil, long, []int{0, 0, 0, -1}, []int{0, 1}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted an operand one element short", name)
					}
				}()
				f()
			}()
		}
	})
}
