package experiments

import (
	"reflect"
	"testing"
)

// TestRequestIDCoversEveryBudgetField perturbs each Budget field (the seed
// among them) and α, one at a time, and requires Request.ID to change: a
// plan-cache key must name every input that decides a plan. A field that
// decides none is listed in notDeciding with the reason, so a Budget field
// added later fails here until ID keys it or the list explains it.
func TestRequestIDCoversEveryBudgetField(t *testing.T) {
	notDeciding := map[string]string{
		"StreamImages": "sizes the IPS measurement after planning; the search never reads it",
		"Parallel":     "sizes the figure harnesses' worker pool; plans are byte-identical for any value",
	}
	base := Request{Budget: Tiny(), Alpha: 0.75}
	id := base.ID()

	typ := reflect.TypeOf(Budget{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		req := base
		f := reflect.ValueOf(&req.Budget).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf(1)))
		default:
			t.Fatalf("Budget.%s has kind %s: teach this test to perturb it", name, f.Kind())
		}
		moved := !reflect.DeepEqual(req.ID(), id)
		switch _, listed := notDeciding[name]; {
		case moved && listed:
			t.Errorf("Budget.%s moves the ID but is listed in notDeciding: drop its row", name)
		case !moved && !listed:
			t.Errorf("Budget.%s does not move the ID: key it in Request.ID, or list it in notDeciding with a reason", name)
		}
	}
	for name := range notDeciding {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notDeciding row %s is stale: Budget has no such field", name)
		}
	}

	req := base
	req.Alpha = 0.3
	if reflect.DeepEqual(req.ID(), id) {
		t.Error("perturbing α leaves the ID unmoved")
	}
}
