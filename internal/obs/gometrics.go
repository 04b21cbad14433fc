package obs

// Shared Prometheus helpers for the process-level series both daemons
// (solverd, solverouter) expose: build identity and Go runtime health.
// Written through PromWriter like the rest of the metrics planes.

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// buildVersion resolves the module version embedded by the Go toolchain;
// "(devel)" for plain `go build`/`go test` trees, which is exactly what the
// label should say there.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// WriteGoRuntimeMetrics writes `<prefix>_build_info` plus Go runtime gauges
// (goroutines, GC pauses and cycles, heap) in stable order. Callers append
// it to their own metrics plane under their own prefix.
func WriteGoRuntimeMetrics(p *PromWriter, prefix string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p.Family(prefix+"_build_info", "gauge", "Build identity; the value is always 1.").Int(fmt.Sprintf("version=%q,go_version=%q", buildVersion(), runtime.Version()), 1)
	p.Family(prefix+"_goroutines", "gauge", "Current number of goroutines.").Int("", int64(runtime.NumGoroutine()))
	p.Family(prefix+"_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.").Float("", float64(ms.PauseTotalNs)/1e9)
	p.Family(prefix+"_gc_cycles_total", "counter", "Completed GC cycles.").Int("", int64(ms.NumGC))
	p.Family(prefix+"_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.").Int("", int64(ms.HeapAlloc))
	p.Family(prefix+"_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS.").Int("", int64(ms.HeapSys))
}
