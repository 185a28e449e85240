package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// fuzzSeedCSV builds the seed corpus: a well-formed users table plus the
// corruption fixtures the error-path tests pin (truncation, extra fields,
// permuted header, garbled booleans).
func fuzzSeedCSV(f *testing.F) {
	var b bytes.Buffer
	if err := WriteUsers(&b, manyUsers(5)); err != nil {
		f.Fatal(err)
	}
	full := b.String()
	lines := strings.SplitAfter(full, "\n")
	f.Add(full)
	f.Add(lines[0])                                                     // header only
	f.Add(full[:len(full)-10])                                          // truncated mid-record
	f.Add(lines[0] + strings.TrimSuffix(lines[1], "\n") + ",garbage\n") // extra field
	f.Add(strings.Replace(full, "id,country", "country,id", 1))         // permuted header
	f.Add(strings.Replace(full, "true", "truex", 1))                    // garbled bool
	f.Add("")
	f.Add("id\n1\n")
	f.Add(lines[0] + "\x00\n")
}

// FuzzUserReader throws arbitrary bytes at the users CSV decoder. Two
// contracts hold for any input: no panic, and any accepted input reaches
// the save→load fixed point in one cycle (re-saving the loaded rows is
// byte-identical — the lossless-serialization contract).
func FuzzUserReader(f *testing.F) {
	fuzzSeedCSV(f)
	f.Fuzz(func(t *testing.T, data string) {
		users, err := readTable(usersTable, strings.NewReader(data))
		if err != nil {
			return
		}
		// Unit-scaled fields settle after one write→read cycle; from there
		// the table must re-serialize bit-for-bit.
		var first bytes.Buffer
		if werr := WriteUsers(&first, users); werr != nil {
			t.Fatalf("rewrite of accepted input failed: %v", werr)
		}
		settled, rerr := readTable(usersTable, bytes.NewReader(first.Bytes()))
		if rerr != nil {
			t.Fatalf("rewritten table does not re-parse: %v", rerr)
		}
		var second bytes.Buffer
		if werr := WriteUsers(&second, settled); werr != nil {
			t.Fatal(werr)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("accepted input did not reach the save→load fixed point in one cycle")
		}
	})
}

// FuzzRobustReader throws arbitrary bytes at the quarantine readers: the
// first byte picks the table, the rest is the file. Three contracts hold
// for any input: no panic; every row the reader keeps passes that table's
// domain check; and Row never moves backwards.
func FuzzRobustReader(f *testing.F) {
	users, switches, plans := formatFixture()
	for i, write := range []func(io.Writer) error{
		func(w io.Writer) error { return WriteUsers(w, users) },
		func(w io.Writer) error { return WriteSwitches(w, switches) },
		func(w io.Writer) error { return WritePlans(w, plans) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			f.Fatal(err)
		}
		full := b.String()
		lines := strings.SplitAfter(full, "\n")
		for _, seed := range []string{
			full,
			full[:len(full)-10],                 // truncated mid-record
			lines[0] + "garbage\n" + lines[1],   // wrong field count
			strings.Replace(full, ",", ",-", 4), // negative (out-of-domain) fields
			strings.Replace(full, "0", "x", 5),  // unparseable fields
			lines[0] + lines[1] + lines[1],      // duplicated row
			lines[0],                            // header only
		} {
			f.Add(append([]byte{byte(i)}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] % 3 {
		case 0:
			fuzzRobust(t, usersTable, data[1:])
		case 1:
			fuzzRobust(t, switchesTable, data[1:])
		default:
			fuzzRobust(t, plansTable, data[1:])
		}
	})
}

func fuzzRobust[T any](t *testing.T, tbl *table[T], data []byte) {
	// No budget: read every row the transport allows.
	rr, err := newRobustReader(tbl, bytes.NewReader(data), tbl.base, QuarantineOptions{MaxBadFrac: 1}, &QuarantineReport{})
	if err != nil {
		return
	}
	last := rr.Row()
	var v T
	for {
		err := rr.Read(&v)
		row := rr.Row()
		if row < last {
			t.Fatalf("Row moved backwards: %d after %d", row, last)
		}
		last = row
		if err != nil {
			return // io.EOF or a terminal transport fault
		}
		if derr := tbl.domain(&v); derr != nil {
			t.Fatalf("row %d kept despite failing the domain check: %v", row, derr)
		}
	}
}
