// Package demo exercises the errcheck analyzer with an in-module API
// whose error and ok results must be consumed.
package demo

import "errors"

// Fallible returns an error that callers must check.
func Fallible() error { return errors.New("boom") }

// Lookup mimics the trailing ok of synth.SynthesizeOutcome's result.
func Lookup(k string) (int, bool) { return 0, k != "" }

// Value has no error/ok result; bare calls are fine.
func Value() int { return 7 }
