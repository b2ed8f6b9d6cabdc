package instio

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the instance and batch parsers. Nothing
// may panic. Whenever the scanner accepts an input, encoding/json must accept
// it too and decode the same Problems; Read must give encoding/json's answer,
// error text included; and every accepted instance must survive a write/read
// round trip whole, with Write's bytes equal to json.Encoder's. The
// checked-in corpus holds one seed per fallback trigger (TestFallbackSeeds).
func FuzzRead(f *testing.F) {
	f.Add(`{"weights":[1,2],"actions":[{"objects":[0,1],"cost":3,"treatment":true}]}`)
	f.Add(`{"comment":"c","weights":[1,2],"actions":[{"name":"<t>","objects":[],"cost":0},` +
		`{"objects":[1],"cost":3,"treatment":true}]}`)
	f.Add(`{"instances":[{"weights":[1],"actions":[{"objects":[0],"cost":1,"treatment":true}]}]}`)
	f.Add(`{"weights":[],"actions":[]}`)
	f.Add(`{`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, input string) {
		body := []byte(input)
		ref, refErr := decodeInstance(body)
		if p, ok := scanInstance(body); ok {
			if refErr != nil {
				t.Fatalf("scanner accepted an instance encoding/json rejects: %v", refErr)
			}
			if !reflect.DeepEqual(p, ref) {
				t.Fatalf("scanner decoded %+v, encoding/json %+v", p, ref)
			}
		}
		if ps, ok := scanBatch(body); ok {
			qs, err := decodeBatch(body)
			if err != nil {
				t.Fatalf("scanner accepted a batch encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(ps, qs) {
				t.Fatal("scanner and encoding/json decode the batch differently")
			}
		}
		p, err := Read(strings.NewReader(input))
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(p, ref) {
			t.Fatalf("Read gave (%+v, %v), encoding/json (%+v, %v)", p, err, ref, refErr)
		}
		if err != nil {
			return // rejected is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, p, ""); err != nil {
			t.Fatalf("accepted instance failed to serialize: %v", err)
		}
		if want := instanceRef(t, p, ""); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Write differs from json.Encoder\n got: %q\nwant: %q", buf.Bytes(), want)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatalf("serialized instance failed to parse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the instance: %+v became %+v", p, q)
		}
	})
}
