package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadScenario feeds arbitrary bytes to the scenario reader. Whatever
// it accepts must survive a write and a second read unchanged
// (read∘write∘read = read), and nothing may panic.
func FuzzReadScenario(f *testing.F) {
	single := Scenario{
		Seed:     3,
		Clusters: []Cluster{{Machines: 32, Reservations: []Reservation{{Procs: 4, Start: 5, End: 25}}}},
		Workload: Workload{Kind: "cirne", Jobs: 10},
		Arrivals: Arrivals{Rate: 1, Burst: 4, Interarrival: "lognormal", RuntimeTail: "weibull"},
		Batch:    Batch{Policy: "adaptive"},
		Faults:   &Faults{MTBF: 20, Repair: 4, Replan: "checkpoint", CheckpointCredit: 0.5},
	}
	for _, s := range []Scenario{single, base()} {
		var buf bytes.Buffer
		if err := WriteScenario(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"version": 1, "clusters": [{"machines": 8, "reservations": []}], "workload": {"jobs": 1}, "arrivals": {"rate": 1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteScenario(&buf, first); err != nil {
			t.Fatalf("accepted scenario does not write back: %v", err)
		}
		second, err := ReadScenario(&buf)
		if err != nil {
			t.Fatalf("written scenario does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
