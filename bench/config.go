package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"shareddb"
)

// engineConfigJSON holds each workload's engine configuration as data:
// an object of shareddb.Config field names. The benchmark contract fixes
// the keys of BENCHMARK.json, so the configuration lives beside the
// program instead of in that file.
//
//go:embed engine_config.json
var engineConfigJSON []byte

// engineConfig decodes the named workload's configuration object into a
// shareddb.Config field by field. A name the struct no longer has is
// returned in ignored and skipped, so a later change may delete a knob
// without editing the benchmark.
func engineConfig(workload string) (cfg shareddb.Config, ignored []string, err error) {
	var all map[string]map[string]json.RawMessage
	if err := json.Unmarshal(engineConfigJSON, &all); err != nil {
		return cfg, nil, fmt.Errorf("engine_config.json: %w", err)
	}
	fields, ok := all[workload]
	if !ok {
		return cfg, nil, fmt.Errorf("engine_config.json: no entry for workload %q", workload)
	}
	v := reflect.ValueOf(&cfg).Elem()
	for name, raw := range fields {
		f := v.FieldByName(name)
		if !f.IsValid() {
			ignored = append(ignored, name)
			continue
		}
		if err := json.Unmarshal(raw, f.Addr().Interface()); err != nil {
			return cfg, nil, fmt.Errorf("engine_config.json: %s.%s: %w", workload, name, err)
		}
	}
	sort.Strings(ignored)
	return cfg, ignored, nil
}
