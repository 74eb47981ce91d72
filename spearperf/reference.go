package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// referenceJSON holds the outputs of the parent commit the checks compare
// against: the digest of `spearbench -json -kernels mcf,art,pointer,gzip,field,fft`
// and, per paper kernel, the digest of the SPEAR-compiled text and
// p-thread table.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Sweep   string            `json:"sweep_report_sha256"`
	Compile map[string]string `json:"compile_program_sha256"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return reference{}, fmt.Errorf("reference: %w", err)
	}
	return ref, nil
}
