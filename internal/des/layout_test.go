package des

import (
	"reflect"
	"testing"
	"unsafe"
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

func TestSimulatorFieldsPadded(t *testing.T) {
	typ := reflect.TypeOf(Simulator{})
	lo, hi := fieldSpan(typ)
	if lo < CacheLine {
		t.Errorf("first field at offset %d, want >= %d bytes of padding before it", lo, CacheLine)
	}
	if tail := typ.Size() - hi; tail < CacheLine {
		t.Errorf("last field ends %d bytes before the end of the %d-byte struct, want >= %d",
			tail, typ.Size(), CacheLine)
	}
}

// layoutSink keeps the simulators of TestBackToBackSimulatorsShareNoLine
// on the heap, where the engine's are.
var layoutSink [2]*Simulator

// TestBackToBackSimulatorsShareNoLine allocates two kernels the way the
// engine does, one after the other on one goroutine, and checks that no
// cache line holds fields of both.
func TestBackToBackSimulatorsShareNoLine(t *testing.T) {
	layoutSink[0], layoutSink[1] = New(), New()
	lo, hi := fieldSpan(reflect.TypeOf(Simulator{}))
	a, b := uintptr(unsafe.Pointer(layoutSink[0])), uintptr(unsafe.Pointer(layoutSink[1]))
	a0, a1 := (a+lo)/CacheLine, (a+hi-1)/CacheLine
	b0, b1 := (b+lo)/CacheLine, (b+hi-1)/CacheLine
	if a0 <= b1 && b0 <= a1 {
		t.Errorf("simulators at %p and %p share a cache line: fields on lines %#x–%#x and %#x–%#x",
			layoutSink[0], layoutSink[1], a0*CacheLine, a1*CacheLine, b0*CacheLine, b1*CacheLine)
	}
}
