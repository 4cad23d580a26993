package shapes

import "testing"

func TestLimitAndRate(t *testing.T) {
	c, err := Parse([]byte(`{"limit": 3}`))
	if err != nil || c.Limit != 3 {
		t.Fatalf("Parse = %+v, %v", c, err)
	}
	if got := Budget(RateConfig{Rate: 2}); got != 8 {
		t.Fatalf("Budget = %v, want 8", got)
	}
}
