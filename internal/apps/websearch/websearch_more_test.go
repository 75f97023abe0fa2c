package websearch

import "testing"

func TestServeWithResultsMatchesServe(t *testing.T) {
	cfg := smallConfig(30)
	b, err := NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws1 := a1.(*App)
	for i := 0; i < ws1.NumRequests(); i++ {
		r1, results, err := ws1.ServeWithResults(i)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		r2, err := a2.Serve(i)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r1.Digest != r2.Digest {
			t.Fatalf("request %d digests differ", i)
		}
		if len(results) > 4 {
			t.Fatalf("request %d returned %d results", i, len(results))
		}
		for _, r := range results {
			if int(r.ID) >= cfg.Docs {
				t.Fatalf("request %d result ID %d out of range", i, r.ID)
			}
		}
		// Results are sorted by descending base relevance in the frame;
		// after popularity re-ranking, scores must at least be finite
		// and positive.
		for _, r := range results {
			if !(r.Score > 0) {
				t.Fatalf("request %d score %g", i, r.Score)
			}
		}
	}
}

func TestQuerySeedSharesQueryStream(t *testing.T) {
	cfg1 := smallConfig(31)
	cfg1.QuerySeed = 999
	cfg2 := smallConfig(32) // different corpus seed
	cfg2.QuerySeed = 999
	b1, err := NewBuilder(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBuilder(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.queries) != len(b2.queries) {
		t.Fatal("query stream lengths differ")
	}
	for i := range b1.queries {
		if len(b1.queries[i].Terms) != len(b2.queries[i].Terms) {
			t.Fatalf("query %d term counts differ", i)
		}
		for j := range b1.queries[i].Terms {
			if b1.queries[i].Terms[j] != b2.queries[i].Terms[j] {
				t.Fatalf("query %d term %d differs", i, j)
			}
		}
	}
}
