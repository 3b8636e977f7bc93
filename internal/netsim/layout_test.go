package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"hiopt/internal/des"
)

// fieldSpan returns the offsets [lo, hi) that the named (non-blank)
// fields of struct type t cover.
func fieldSpan(t reflect.Type) (lo, hi uintptr) {
	lo = t.Size()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "_" {
			continue
		}
		lo = min(lo, f.Offset)
		hi = max(hi, f.Offset+f.Type.Size())
	}
	return lo, hi
}

func TestEvaluatorFieldsPadded(t *testing.T) {
	typ := reflect.TypeOf(Evaluator{})
	lo, hi := fieldSpan(typ)
	if lo < des.CacheLine {
		t.Errorf("first field at offset %d, want >= %d bytes of padding before it", lo, des.CacheLine)
	}
	if tail := typ.Size() - hi; tail < des.CacheLine {
		t.Errorf("last field ends %d bytes before the end of the %d-byte struct, want >= %d",
			tail, typ.Size(), des.CacheLine)
	}
}

// layoutSink keeps the evaluators of TestBackToBackEvaluatorsShareNoLine
// on the heap, where the engine's are.
var layoutSink [2]*Evaluator

// TestBackToBackEvaluatorsShareNoLine allocates two evaluators in the
// order engine.New does, one after the other on one goroutine, and
// checks that no cache line holds fields of both evaluators or of both
// of their kernels.
func TestBackToBackEvaluatorsShareNoLine(t *testing.T) {
	layoutSink[0], layoutSink[1] = NewEvaluator(), NewEvaluator()
	for _, c := range []struct {
		name string
		a, b unsafe.Pointer
		typ  reflect.Type
	}{
		{"evaluators", unsafe.Pointer(layoutSink[0]), unsafe.Pointer(layoutSink[1]), reflect.TypeOf(Evaluator{})},
		{"kernels", unsafe.Pointer(layoutSink[0].sim), unsafe.Pointer(layoutSink[1].sim), reflect.TypeOf(des.Simulator{})},
	} {
		lo, hi := fieldSpan(c.typ)
		a0, a1 := (uintptr(c.a)+lo)/des.CacheLine, (uintptr(c.a)+hi-1)/des.CacheLine
		b0, b1 := (uintptr(c.b)+lo)/des.CacheLine, (uintptr(c.b)+hi-1)/des.CacheLine
		if a0 <= b1 && b0 <= a1 {
			t.Errorf("%s at %p and %p share a cache line: fields on lines %#x–%#x and %#x–%#x",
				c.name, c.a, c.b, a0*des.CacheLine, a1*des.CacheLine, b0*des.CacheLine, b1*des.CacheLine)
		}
	}
}
