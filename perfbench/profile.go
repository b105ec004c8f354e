package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The class profile runs each op class of a workload's mix alone, after
// the measured phase, and reports what one op of it costs: wall time,
// process CPU and heap bytes allocated, appliance and client together.
// Weighted by the mix, the costs give each class's share of the
// end-to-end figures, so the report shows which classes a figure
// tracks.

const (
	profileFor    = 250 * time.Millisecond // per class
	profileMinOps = 10
)

// classCost is one class's cost per op and its share of the mix.
type classCost struct {
	Class        string  `json:"class"`
	Weight       float64 `json:"weight"` // share of the ops drawn
	Ops          int     `json:"ops"`
	UsPerOp      float64 `json:"us_per_op"`
	CPUUsPerOp   float64 `json:"cpu_us_per_op"`
	AllocKBPerOp float64 `json:"alloc_KB_per_op"`
	TimeShare    float64 `json:"time_share"`
	CPUShare     float64 `json:"cpu_share"`
	AllocShare   float64 `json:"alloc_share"`
}

// classProfile is every class of a mix, and the per-op figures of the
// whole mix as the classes predict them (one client, no contention).
type classProfile struct {
	Classes         []classCost `json:"classes"`
	MixUsPerOp      float64     `json:"mix_us_per_op"`
	MixCPUUsPerOp   float64     `json:"mix_cpu_us_per_op"`
	MixAllocKBPerOp float64     `json:"mix_alloc_KB_per_op"`
}

// profile measures every class of the mix on cl, one op at a time:
// ReadMemStats flushes the allocation counters, so each op's bytes are
// exact. Failed ops are reported as problems.
func (b *bench) profile(cl *client) (classProfile, []string) {
	w := b.w
	d := w.newDrawer(b.seed^0x70726f66, cl.id) // "prof"
	total := 0
	for _, c := range w.mix {
		total += c.weight
	}
	var prof classProfile
	var problems []string
	var ms runtime.MemStats
	var rus syscall.Rusage
	cpuNow := func() int64 {
		syscall.Getrusage(syscall.RUSAGE_SELF, &rus)
		return rus.Utime.Nano() + rus.Stime.Nano()
	}
	for _, c := range w.mix {
		var wall time.Duration
		var cpu int64
		var alloc uint64
		n := 0
		for start := time.Now(); n < profileMinOps || time.Since(start) < profileFor; {
			o := c.pick(d)
			if o.kind == opRemove && !w.state[o.file].exists.Load() {
				// A remove needs a file: store it first, unmeasured.
				o.kind = opPut
				if _, err := cl.exec(o); err != nil {
					problems = append(problems, fmt.Sprintf("profile %s: put %s: %v", c.name, w.files[o.file].path, err))
					break
				}
				o.kind = opRemove
			}
			runtime.ReadMemStats(&ms)
			a0, c0, t0 := ms.TotalAlloc, cpuNow(), time.Now()
			_, err := cl.exec(o)
			wall += time.Since(t0)
			cpu += cpuNow() - c0
			runtime.ReadMemStats(&ms)
			alloc += ms.TotalAlloc - a0
			if err != nil {
				problems = append(problems, fmt.Sprintf("profile %s %s: %v", c.name, w.files[o.file].path, err))
				break
			}
			n++
		}
		cc := classCost{Class: c.name, Weight: float64(c.weight) / float64(total), Ops: n}
		if n > 0 {
			cc.UsPerOp = float64(wall.Nanoseconds()) / 1e3 / float64(n)
			cc.CPUUsPerOp = float64(cpu) / 1e3 / float64(n)
			cc.AllocKBPerOp = float64(alloc) / 1024 / float64(n)
		}
		prof.MixUsPerOp += cc.Weight * cc.UsPerOp
		prof.MixCPUUsPerOp += cc.Weight * cc.CPUUsPerOp
		prof.MixAllocKBPerOp += cc.Weight * cc.AllocKBPerOp
		prof.Classes = append(prof.Classes, cc)
	}
	for i := range prof.Classes {
		cc := &prof.Classes[i]
		cc.TimeShare = ratio(cc.Weight*cc.UsPerOp, prof.MixUsPerOp)
		cc.CPUShare = ratio(cc.Weight*cc.CPUUsPerOp, prof.MixCPUUsPerOp)
		cc.AllocShare = ratio(cc.Weight*cc.AllocKBPerOp, prof.MixAllocKBPerOp)
	}
	return prof, problems
}
