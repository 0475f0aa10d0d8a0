package live

import (
	"repro/internal/rdma"
)

// link is one connected neighbour link: a messenger at each end of a
// loopback tcp connection, a sending to b.
type link struct{ a, b *rdma.Messenger }

func (l link) close() {
	l.a.Close()
	l.b.Close()
}

// reqMsgBytes bounds a request-link message (reqMsgSize, with room).
const reqMsgBytes = 1 << 12

// newLinks builds data data links, sized to the ring message limit,
// followed by req request links. If any of them fails, every link it
// built is closed.
func (r *Ring) newLinks(data, req int) ([]link, error) {
	links := make([]link, 0, data+req)
	for i := 0; i < data+req; i++ {
		size := r.maxMsgBytes
		if i >= data {
			size = reqMsgBytes
		}
		l, err := newLink(size)
		if err != nil {
			for _, built := range links {
				built.close()
			}
			return nil, err
		}
		links = append(links, l)
	}
	return links, nil
}

// newLink wraps both ends of a fresh loopback connection in messengers,
// closing what it built on error.
func newLink(size int) (link, error) {
	ca, cb, err := rdma.NewTCPPair()
	if err != nil {
		return link{}, err
	}
	a, err := rdma.NewMessenger(ca, size)
	if err != nil {
		ca.Close()
		cb.Close()
		return link{}, err
	}
	b, err := rdma.NewMessenger(cb, size)
	if err != nil {
		a.Close()
		cb.Close()
		return link{}, err
	}
	return link{a, b}, nil
}
