package main

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/modelio"
)

func TestTemplatesDeterministic(t *testing.T) {
	a, b, c := largeTemplates(7), largeTemplates(7), largeTemplates(8)
	for i := range a {
		if !bytes.Equal(a[i].doc, b[i].doc) || a[i].off != b[i].off {
			t.Errorf("%s: same seed rendered different templates", a[i].name)
		}
		if bytes.Equal(a[i].doc, c[i].doc) {
			t.Errorf("%s: seeds 7 and 8 rendered identical templates", a[i].name)
		}
	}
}

func TestSplicedDocumentsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tpl := range largeTemplates(3) {
		doc := append([]byte(nil), tpl.doc...)
		for _, v := range []float64{tpl.lo, tpl.draw(rng), tpl.hi} {
			tpl.splice(doc, v)
			if len(doc) != len(tpl.doc) {
				t.Fatalf("%s: splice changed the document length", tpl.name)
			}
			spec, err := modelio.Parse(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s: spliced %g: parse: %v", tpl.name, v, err)
			}
			res, err := modelio.Solve(spec)
			if err != nil || len(res) != 1 {
				t.Fatalf("%s: spliced %g: solve: %v (%d results)", tpl.name, v, err, len(res))
			}
		}
	}
}
