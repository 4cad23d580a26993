// Command fixture uses every export of package shapes but Square.Scale
// and Config.Unread.
package main

import (
	"fmt"

	"fixture/internal/shapes"
)

func main() {
	c := &shapes.Circle{R: 1}
	c.Scale(2)
	sq := shapes.Square{Side: 1}
	fmt.Println(c, shapes.Total(c), sq.Side)
	cfg, err := shapes.Parse([]byte(`{"Name": "n", "Unread": 1}`))
	fmt.Println(cfg.Name, err)
}
