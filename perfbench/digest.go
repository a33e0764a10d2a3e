package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	"cdnconsistency/internal/cdn"
)

// digestSkip names the cdn.Result fields the digest leaves out: they count
// the implementation's own work (engine events, auditor passes), which a
// faithful optimisation may change. The benchmark reports both per layer.
var digestSkip = map[string]bool{"Events": true, "AuditChecks": true}

// resultDigest hashes every modelled outcome of a run: per-server and
// per-user means, user weights, every counter, and the traffic ledger by
// class and by sender. Fields are hashed by name and zero values are
// skipped, so a new Result field that stays zero leaves digests unchanged.
func resultDigest(r *cdn.Result) string {
	h := sha256.New()
	v := reflect.ValueOf(*r)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if digestSkip[f.Name] || v.Field(i).IsZero() {
			continue
		}
		fmt.Fprintf(h, "%s:", f.Name)
		hashValue(h, v.Field(i))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// hashValue writes an exact, order-stable encoding of v: floats by their
// bits, maps in sorted key order.
func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		h.Write(buf[:])
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		h.Write(buf[:])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
		h.Write(buf[:])
	case reflect.Bool:
		fmt.Fprint(h, v.Bool())
	case reflect.String:
		fmt.Fprintf(h, "%q", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "[%d", v.Len())
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		h.Write([]byte("]"))
	case reflect.Map:
		type entry struct {
			sortKey string
			key     reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for _, k := range v.MapKeys() {
			entries = append(entries, entry{fmt.Sprint(k), k})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].sortKey < entries[j].sortKey })
		fmt.Fprintf(h, "{%d", v.Len())
		for _, e := range entries {
			hashValue(h, e.key)
			hashValue(h, v.MapIndex(e.key))
		}
		h.Write([]byte("}"))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			hashValue(h, v.Elem())
		}
	default:
		panic(fmt.Sprintf("perfbench: cannot digest a %s", v.Kind()))
	}
}

// bytesDigest hashes the concatenation of parts.
func bytesDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
