package main

import (
	"testing"

	"prunesim"
)

func TestParseCell(t *testing.T) {
	m := prunesim.StandardPET()
	for _, c := range []struct {
		in     string
		tt, mt int
	}{
		{"gzip:sunfire-3800", 0, 6},
		{"0:6", 0, 6},
		{"gzip:6", 0, 6},
		{"3:1", 3, 1},
		{"11:7", 11, 7},
	} {
		tt, mt, err := parseCell(m, c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if tt != c.tt || mt != c.mt {
			t.Errorf("%q = (%d,%d), want (%d,%d)", c.in, tt, mt, c.tt, c.mt)
		}
	}
}

func TestParseCellRejects(t *testing.T) {
	m := prunesim.StandardPET()
	for _, in := range []string{
		"",
		"3",                   // no separator
		"3x:1",                // trailing junk on the task index
		"3:1.9",               // fractional machine index
		"1.9:1",               // fractional task index
		"3: 1",                // embedded space
		"nope:1",              // unknown task name
		"0:nope",              // unknown machine name
		"12:0",                // task index out of range
		"0:8",                 // machine index out of range
		"-1:0",                // negative task index
		"0:-1",                // negative machine index
		"gzip:sunfire-3800:x", // extra field
	} {
		if tt, mt, err := parseCell(m, in); err == nil {
			t.Errorf("%q accepted as (%d,%d)", in, tt, mt)
		}
	}
}
