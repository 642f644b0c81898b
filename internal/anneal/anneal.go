// Package anneal provides the simulated-annealing substrate used by the
// jury-selection heuristics (Section 5.1 of Zheng et al., EDBT 2015):
// a geometric cooling schedule, the Boltzmann acceptance rule, and
// Search, the one Algorithm 3/4 loop over candidate index sets that the
// binary and multi-choice selectors share.
//
// The paper's Algorithm 3 halves the temperature from 1.0 until it falls
// below ε, performing N local searches per temperature level; a move that
// improves the objective is always accepted, and a move that worsens it by
// Δ < 0 is accepted with probability exp(Δ/T).
package anneal

import (
	"fmt"
	"math"
	"math/rand"
)

// Default schedule parameters, matching Algorithm 3.
const (
	DefaultInitialTemp = 1.0
	DefaultCooling     = 0.5
	DefaultEpsilon     = 1e-8
)

// Schedule describes a geometric cooling schedule: the temperature starts
// at InitialTemp and is multiplied by Cooling after every level until it
// drops below Epsilon.
type Schedule struct {
	InitialTemp float64
	Cooling     float64
	Epsilon     float64
}

// DefaultSchedule returns the paper's schedule (T₀=1, halving, ε=1e−8).
func DefaultSchedule() Schedule {
	return Schedule{InitialTemp: DefaultInitialTemp, Cooling: DefaultCooling, Epsilon: DefaultEpsilon}
}

// Validate checks the schedule parameters.
func (s Schedule) Validate() error {
	if !(s.InitialTemp > 0) {
		return fmt.Errorf("anneal: InitialTemp must be positive, got %v", s.InitialTemp)
	}
	if !(s.Cooling > 0 && s.Cooling < 1) {
		return fmt.Errorf("anneal: Cooling must be in (0, 1), got %v", s.Cooling)
	}
	if !(s.Epsilon > 0) {
		return fmt.Errorf("anneal: Epsilon must be positive, got %v", s.Epsilon)
	}
	return nil
}

// Levels returns the number of temperature levels the schedule visits.
func (s Schedule) Levels() int {
	if s.Validate() != nil {
		return 0
	}
	levels := 0
	for t := s.InitialTemp; t >= s.Epsilon; t *= s.Cooling {
		levels++
	}
	return levels
}

// Accept implements the Boltzmann acceptance rule for a maximization
// problem: a move with objective change delta ≥ 0 is always accepted; a
// worsening move is accepted with probability exp(delta/temp).
func Accept(delta, temp float64, rng *rand.Rand) bool {
	if delta >= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() <= math.Exp(delta/temp)
}

// Run drives the cooling loop: for each temperature level it invokes
// level(T) once. The callback typically performs N local searches, calling
// Accept to decide each move. Run returns the number of levels executed or
// an error for an invalid schedule.
func Run(s Schedule, level func(temp float64)) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	levels := 0
	for t := s.InitialTemp; t >= s.Epsilon; t *= s.Cooling {
		level(t)
		levels++
	}
	return levels, nil
}
