package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// digester hashes a pass's simulated outputs in job-list order.
type digester struct{ buf []byte }

func (d *digester) add(line string) {
	d.buf = append(d.buf, line...)
	d.buf = append(d.buf, '\n')
}

func (d *digester) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:16])
}
