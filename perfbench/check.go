package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/partition"
)

// checker tests answers against properties the method must have. It
// compares against no stored output of the program, so a change that
// corrects the method still passes.
type checker struct {
	space map[string][]string // platform -> class index -> partition
	first map[cellKey]engine.Prediction
}

type cellKey struct {
	Platform string
	point
}

func newChecker() (*checker, error) {
	c := &checker{space: map[string][]string{}, first: map[cellKey]engine.Prediction{}}
	for _, name := range platforms {
		plat, err := device.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, p := range partition.Space(plat.NumDevices(), partition.DefaultSteps) {
			c.space[name] = append(c.space[name], p.String())
		}
	}
	return c, nil
}

// prediction checks one answered point. served is the time the request
// was answered with: the predicted makespan, or the executed one.
func (c *checker) prediction(plat string, pt point, p *engine.Prediction, served float64) error {
	if p.Program != pt.Program || p.SizeIdx != pt.Size || p.Platform != plat {
		return fmt.Errorf("asked %s/%s/S%d, answered %s/%s/S%d", plat, pt.Program, pt.Size, p.Platform, p.Program, p.SizeIdx)
	}
	where := fmt.Sprintf("%s/%s/S%d", plat, pt.Program, pt.Size)
	space := c.space[plat]
	if p.Class < 0 || p.Class >= len(space) || space[p.Class] != p.Partition {
		return fmt.Errorf("%s: class %d partition %q is not in the platform's space", where, p.Class, p.Partition)
	}
	sum := 0
	for _, f := range strings.Split(p.Partition, "/") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("%s: partition %q: %v", where, p.Partition, err)
		}
		sum += v
	}
	if sum != 100 {
		return fmt.Errorf("%s: partition %q shares sum to %d", where, p.Partition, sum)
	}
	if p.LeftOut != pt.Program {
		return fmt.Errorf("%s: leave-one-out answer names %q as left out", where, p.LeftOut)
	}
	if !(p.OracleTime > 0 && served > 0 && p.CPUOnlyTime > 0 && p.GPUOnlyTime > 0) {
		return fmt.Errorf("%s: times must be positive (oracle %g, served %g, cpu %g, gpu %g)", where, p.OracleTime, served, p.CPUOnlyTime, p.GPUOnlyTime)
	}
	if p.OracleTime > served || p.OracleTime > p.CPUOnlyTime || p.OracleTime > p.GPUOnlyTime {
		return fmt.Errorf("%s: oracle %g slower than served %g, cpu-only %g or gpu-only %g", where, p.OracleTime, served, p.CPUOnlyTime, p.GPUOnlyTime)
	}
	return nil
}

// agree checks that every answer for a cell equals the first one seen,
// so JSON and wire answers for the same (platform, program, size) agree
// exactly and stay fixed through the run.
func (c *checker) agree(plat string, pt point, p *engine.Prediction) error {
	k := cellKey{plat, pt}
	first, ok := c.first[k]
	if !ok {
		c.first[k] = *p
		return nil
	}
	if first != *p {
		return fmt.Errorf("%s/%s/S%d: answers differ:\n  %+v\n  %+v", plat, pt.Program, pt.Size, first, *p)
	}
	return nil
}

// answer checks every point of one decoded answer.
func (c *checker) answer(o *op, a answer) error {
	if len(a.Preds) != len(o.Points) {
		return fmt.Errorf("%d points asked, %d answered", len(o.Points), len(a.Preds))
	}
	for i, pt := range o.Points {
		p := &a.Preds[i]
		served := p.PredictedTime
		if a.Exec != nil {
			x := a.Exec
			if !x.Verified {
				return fmt.Errorf("%s/%s/S%d: execution not verified: %s", o.Platform, pt.Program, pt.Size, x.VerifyError)
			}
			if x.Makespan != x.PredictedTime {
				return fmt.Errorf("%s/%s/S%d: makespan %g differs from the predicted time %g of the served partition", o.Platform, pt.Program, pt.Size, x.Makespan, x.PredictedTime)
			}
			served = x.Makespan
		}
		if err := c.prediction(o.Platform, pt, p, served); err != nil {
			return err
		}
		if err := c.agree(o.Platform, pt, p); err != nil {
			return err
		}
	}
	return nil
}
