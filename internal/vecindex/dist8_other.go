//go:build !amd64

package vecindex

func dist8first(q *[8]float64, slab []float64, bound float64) int {
	panic("vecindex: AVX2 kernel called off amd64")
}
