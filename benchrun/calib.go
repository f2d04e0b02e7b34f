package main

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose speed drifts
// by a third and more over minutes with what its neighbours run, and
// flips between a fast and a 1.7× slower state within a second. Raw
// timings of one program then differ between runs by more than any
// regression worth catching. So every measured phase also times a
// calibration probe — a fixed computation that calls no code of the
// program — about every probeEvery, at moments the load leaves free (a
// burst between two segments where it leaves none), and
// scales its timings by refProbeMs over the probe's mean time in the
// phase: the figure the run would have measured on a host where one probe
// takes refProbeMs. The mean, not the median, because the share of time
// the host spends in its slow state is what slows the load. The ref_*
// metrics are these reference-speed figures; the raw ones are printed
// beside them.
const (
	refProbeMs  = 3.0 // probe time at the reference speed: about a 2-vCPU Xeon VM's
	probeEvery  = 100 * time.Millisecond
	burstProbes = 8 // probes per loop in a burst: around set-ups and saturation segments
)

// The probe's inputs: small enough to stay in a core's own caches, so
// that a probe times the core rather than what the program's last request
// left in the shared caches; built once and never written after, so
// probing allocates one small scratch slice per sample and barely touches
// the program's garbage collector.
var probeIn struct {
	once sync.Once
	src  []int
	sets [][8]uint64 // 512-bit sets, like the program's vertex sets
	keys []int
	tab  map[int]int
}

func initProbe() {
	in := &probeIn
	r := rand.New(rand.NewSource(1))
	in.src = make([]int, 2000)
	for i := range in.src {
		in.src[i] = r.Int()
	}
	in.sets = make([][8]uint64, 256)
	for i := range in.sets {
		for j := range in.sets[i] {
			in.sets[i][j] = r.Uint64() & r.Uint64()
		}
	}
	in.tab = make(map[int]int, 2048)
	for len(in.keys) < 2048 {
		k := r.Int()
		in.tab[k] = len(in.keys)
		in.keys = append(in.keys, k)
	}
}

// probe is the calibration computation: sorting, set intersections and
// map lookups, the kinds of work the program's layers mix. buf is the
// caller's own scratch space; the result only keeps the work from being
// optimized away.
func probe(buf []int) int {
	in := &probeIn
	sum := 0
	copy(buf, in.src)
	slices.Sort(buf)
	for range 3 {
		for i, a := range in.sets {
			for _, b := range in.sets[i%16:] {
				for j := range a {
					sum += bits.OnesCount64(a[j] & b[j])
				}
			}
		}
	}
	for range 4 {
		for _, k := range in.keys {
			sum += in.tab[k]
		}
	}
	return sum + buf[0]
}

var probeSink int

// calibrator records the probe times of one measured phase. A sample
// runs par probe loops at once (one when par is 0): a phase whose load
// keeps several cores busy is calibrated on as many, since how the host
// places two busy vCPUs — on separate cores or sharing one — moves such
// load far more than it moves a lone probe.
type calibrator struct {
	par  int
	ms   []float64 // every timed probe, in ms
	last time.Time // end of the latest sample
}

// sample runs, in each of its par loops, warm untimed probes and then n
// timed ones.
func (c *calibrator) sample(warm, n int) {
	probeIn.once.Do(initProbe)
	loops := max(c.par, 1)
	ms := make([]float64, loops*n)
	sums := make([]int, loops)
	var wg sync.WaitGroup
	for l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, len(probeIn.src))
			for range warm {
				sums[l] += probe(buf)
			}
			for i := range n {
				t := time.Now()
				sums[l] += probe(buf)
				ms[l*n+i] = float64(time.Since(t).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		probeSink += s
	}
	c.ms = append(c.ms, ms...)
	c.last = time.Now()
}

// due reports whether probeEvery has passed since the latest sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= probeEvery }

// probeMs is the mean probe time.
func (c *calibrator) probeMs() float64 {
	sum := 0.0
	for _, x := range c.ms {
		sum += x
	}
	return sum / float64(len(c.ms))
}

// scale converts a time measured in the phase to the reference speed.
func (c *calibrator) scale() float64 { return refProbeMs / c.probeMs() }

// setUps times repeated set-ups, with a burst of probes before and after
// each, until setUpAgain is satisfied, calling undo untimed before each
// but the first; it returns their raw and reference-speed seconds.
func setUps(undo func(), once func() error) (raw, ref []float64, err error) {
	var cal calibrator
	cal.sample(1, burstProbes)
	for setUpAgain(raw) {
		if len(raw) > 0 {
			undo()
		}
		t := time.Now()
		if err := once(); err != nil {
			return nil, nil, err
		}
		raw = append(raw, time.Since(t).Seconds())
		cal.sample(1, burstProbes)
	}
	for _, s := range raw {
		ref = append(ref, s*cal.scale())
	}
	return raw, ref, nil
}
