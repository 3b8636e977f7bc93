package lp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// elimSpecials are the cells the elimination routine must treat exactly as
// Go does: signed zeros (f = ±0 skips a row), subnormals, the largest
// finite values, infinities and NaNs (f = NaN does not skip a row; the
// payload of a NaN result depends on the operand order).
var elimSpecials = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3, 1.0 / 3,
	5e-324, -5e-324, 0x1p-1022, 0x1.8p-1070,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff80000000abcde), // negative quiet NaN with a payload
}

// cellSource yields tableau cells from fuzz bytes: a byte below 0x80
// picks a special, a byte from 0x80 up takes the next eight bytes as raw
// float64 bits. Once the bytes run out it draws normal variates, so
// every row gets a nonzero slot-k entry.
type cellSource struct {
	b   []byte
	rnd *rand.Rand
}

func (c *cellSource) next() float64 {
	if len(c.b) == 0 {
		return c.rnd.NormFloat64()
	}
	sel := c.b[0]
	c.b = c.b[1:]
	if sel < 0x80 || len(c.b) < 8 {
		return elimSpecials[int(sel)%len(elimSpecials)]
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v
}

// checkElimRows fills an m×n tableau and xB from next, runs elimRows and
// elimRowsGo on two copies, and requires the same bits in every cell and
// every xB entry. With offset set, the rows share one backing array and
// start at odd float64 offsets, so no row is 16-byte aligned.
func checkElimRows(m, n, r, k int, dv float64, offset bool, next func() float64) error {
	stride := n
	if offset {
		stride = n + n%2 // even, so every row below starts at an odd index
	}
	back := [2][]float64{make([]float64, 1+m*stride), make([]float64, 1+m*stride)}
	var tab [2][][]float64
	var xB [2][]float64
	for c := range tab {
		tab[c] = make([][]float64, m)
		xB[c] = make([]float64, m)
		for i := range tab[c] {
			base := i * stride
			if offset {
				base++
			}
			tab[c][i] = back[c][base : base+n : base+n]
		}
	}
	for i := 0; i < m; i++ {
		xB[0][i] = next()
		for j := 0; j < n; j++ {
			tab[0][i][j] = next()
		}
	}
	copy(back[1], back[0])
	copy(xB[1], xB[0])
	elimRows(tab[0], xB[0], r, k, dv)
	elimRowsGo(tab[1], xB[1], r, k, dv)
	for i := 0; i < m; i++ {
		if a, b := math.Float64bits(xB[0][i]), math.Float64bits(xB[1][i]); a != b {
			return fmt.Errorf("m=%d n=%d r=%d k=%d: xB[%d] %#x, Go %#x", m, n, r, k, i, a, b)
		}
		for j := 0; j < n; j++ {
			if a, b := math.Float64bits(tab[0][i][j]), math.Float64bits(tab[1][i][j]); a != b {
				return fmt.Errorf("m=%d n=%d r=%d k=%d: t[%d][%d] %#x, Go %#x", m, n, r, k, i, j, a, b)
			}
		}
	}
	return nil
}

// TestElimRowsMatchesGo checks the elimination routine against its Go
// twin bit for bit on 20,000 random tableaux of every tail length, with
// one cell in ten drawn from elimSpecials.
func TestElimRowsMatchesGo(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	next := func() float64 {
		if g.Intn(10) == 0 {
			return elimSpecials[g.Intn(len(elimSpecials))]
		}
		return g.NormFloat64()
	}
	for trial := 0; trial < 20000; trial++ {
		m, n := 1+g.Intn(80), 1+g.Intn(72)
		if err := checkElimRows(m, n, g.Intn(m), g.Intn(n), next(), trial%2 == 1, next); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzElimRows is the differential target for the elimination routine:
// any m ≥ 1, any n from 1 to 71 (every tail length of the 8-, 2- and
// 1-cell loops; a pivot needs at least one slot), any r and k, and cells
// taken from the fuzz bytes (see cellSource), so ±0, subnormal, ±Inf and
// NaN cells and a NaN f all occur. The assembly routine must match the
// Go twin bit for bit on xB and every cell. Off amd64 both sides run the
// Go loop. Seeds are in testdata/fuzz/FuzzElimRows; run
//
//	go test -run=NONE -fuzz=FuzzElimRows -fuzztime=30s ./internal/lp
//
// to search beyond them.
func FuzzElimRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, n, r, k uint8, dv float64, offset bool, cells []byte) {
		mm, nn := 1+int(m)%40, 1+int(n)%71
		src := &cellSource{b: cells, rnd: rand.New(rand.NewSource(int64(m)<<24 | int64(n)<<16 | int64(r)<<8 | int64(k)))}
		if err := checkElimRows(mm, nn, int(r)%mm, int(k)%nn, dv, offset, src.next); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkElimRows times one elimination over a 79×36 tableau, the
// paper chain's shape, for the routine pivot calls and for the Go twin.
// The pivot row's slot-k entry is −1, so each row's multiplier keeps its
// magnitude and the cells grow only linearly over b.N rounds.
func BenchmarkElimRows(b *testing.B) {
	const m, n, r, k = 79, 36, 40, 7
	for _, bc := range []struct {
		name string
		elim func([][]float64, []float64, int, int, float64)
	}{{"routine", elimRows}, {"go", elimRowsGo}} {
		b.Run(bc.name, func(b *testing.B) {
			g := rand.New(rand.NewSource(2))
			tab := make([][]float64, m)
			for i := range tab {
				tab[i] = make([]float64, n)
				for j := range tab[i] {
					tab[i][j] = g.NormFloat64()
				}
			}
			tab[r][k] = -1
			xB := make([]float64, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.elim(tab, xB, r, k, 0.5)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(m-1)*n), "ns/cell")
		})
	}
}
