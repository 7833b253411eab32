package main

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// expectJSON builds a check that accepts exactly one status and an
// answer whose compared fields equal want bit for bit: every expected
// value is computed in-process from the same documents, so any
// difference is a wrong answer, not rounding.
func expectJSON[T any](wantStatus int, want T) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != wantStatus {
			return fmt.Errorf("HTTP %d, want %d: %.200s", status, wantStatus, body)
		}
		var got T
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			return fmt.Errorf("answer %s, want %s", g, w)
		}
		return nil
	}
}

// expectStatus builds a check that accepts one status and any body.
func expectStatus(want int) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != want {
			return fmt.Errorf("HTTP %d, want %d: %.200s", status, want, body)
		}
		return nil
	}
}

// mustJSON marshals a request document built by the benchmark itself.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("svcbench: marshal request: %v", err))
	}
	return data
}
