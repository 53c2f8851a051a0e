package tpcw

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Interaction enumerates the 14 TPC-W web interactions.
type Interaction int

// Web interactions (paper Figure 9 order).
const (
	Home Interaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm
	NumInteractions
)

// String returns the interaction name.
func (i Interaction) String() string {
	return [...]string{
		"Home", "NewProducts", "BestSellers", "ProductDetail", "SearchRequest",
		"SearchResults", "ShoppingCart", "CustomerRegistration", "BuyRequest",
		"BuyConfirm", "OrderInquiry", "OrderDisplay", "AdminRequest", "AdminConfirm",
	}[i]
}

// Timeout returns the TPC-W web-interaction response-time constraint
// (seconds, per the specification's WIRT table).
func (i Interaction) Timeout() time.Duration {
	secs := [...]int{3, 5, 5, 3, 3, 10, 3, 3, 3, 5, 3, 3, 3, 20}[i]
	return time.Duration(secs) * time.Second
}

// IDAllocator hands out fresh primary keys during the run (the reference
// implementation does this in the application tier).
type IDAllocator struct {
	order     atomic.Int64
	orderLine atomic.Int64
	customer  atomic.Int64
	address   atomic.Int64
	cart      atomic.Int64
}

// NewIDAllocator seeds the counters from the generator's high-water marks.
func NewIDAllocator(g *Generator) *IDAllocator {
	a := &IDAllocator{}
	a.order.Store(g.MaxOrderID)
	a.orderLine.Store(g.MaxOrderLineID)
	a.customer.Store(g.MaxCustomerID)
	a.address.Store(g.MaxAddressID)
	a.cart.Store(g.MaxCartID)
	return a
}

// Session is one emulated browser's state: the system under test, its
// private RNG and the identifiers it touched.
type Session struct {
	Sys   System
	Rng   *rand.Rand
	IDs   *IDAllocator
	Scale Scale

	customerID int64
	cartID     int64
	lastItemID int64
	// BestSellerWindow is the paper's "latest 3,333 orders" (§5.6), scaled
	// with the database population.
	BestSellerWindow int64
}

// NewSession creates a session.
func NewSession(sys System, scale Scale, ids *IDAllocator, seed int64) *Session {
	w := int64(3333)
	if maxW := int64(scale.Orders()); w > maxW {
		w = maxW / 3
		if w < 10 {
			w = 10
		}
	}
	return &Session{
		Sys: sys, Rng: rand.New(rand.NewSource(seed)), IDs: ids, Scale: scale,
		customerID:       1 + int64(seed)%int64(scale.Customers),
		BestSellerWindow: w,
	}
}

func (s *Session) randItem() int64 { return int64(s.Rng.Intn(s.Scale.Items) + 1) }
func (s *Session) randSubject() string {
	return subjects[s.Rng.Intn(len(subjects))]
}

// iv/sv/fv/tv are parameter constructors.
func iv(v int64) types.Value     { return types.NewInt(v) }
func sv(v string) types.Value    { return types.NewString(v) }
func fv(v float64) types.Value   { return types.NewFloat(v) }
func tv(v time.Time) types.Value { return types.NewTime(v) }

// Run executes one web interaction end to end (all its database queries).
func (s *Session) Run(i Interaction) error {
	switch i {
	case Home:
		return s.home()
	case NewProducts:
		return s.newProducts()
	case BestSellers:
		return s.bestSellers()
	case ProductDetail:
		return s.productDetail()
	case SearchRequest:
		return s.searchRequest()
	case SearchResults:
		return s.searchResults()
	case ShoppingCart:
		return s.shoppingCart()
	case CustomerRegistration:
		return s.customerRegistration()
	case BuyRequest:
		return s.buyRequest()
	case BuyConfirm:
		return s.buyConfirm()
	case OrderInquiry:
		return s.orderInquiry()
	case OrderDisplay:
		return s.orderDisplay()
	case AdminRequest:
		return s.adminRequest()
	case AdminConfirm:
		return s.adminConfirm()
	default:
		return fmt.Errorf("tpcw: unknown interaction %d", i)
	}
}

// home fetches the customer greeting and the promotional items
// ("two queries ... the first fetches a set of promotion items, and the
// second retrieves the profile of the user", paper §5.1).
func (s *Session) home() error {
	if _, err := s.Sys.Query(StGetName, iv(s.customerID)); err != nil {
		return err
	}
	_, err := s.Sys.Query(StGetRelated, iv(s.randItem()))
	return err
}

func (s *Session) newProducts() error {
	rows, err := s.Sys.Query(StGetNewProducts, sv(s.randSubject()))
	if err == nil && len(rows) > 0 {
		s.lastItemID = rows[s.Rng.Intn(len(rows))][0].AsInt()
	}
	return err
}

// bestSellers is the paper's heavy query (§5.6): the latest orders window
// comes from a separate MAX(o_id) statement (scalar-subquery substitution).
func (s *Session) bestSellers() error {
	rows, err := s.Sys.Query(StGetMaxOrderID)
	if err != nil {
		return err
	}
	maxOID := int64(0)
	if len(rows) > 0 {
		maxOID = rows[0][0].AsInt()
	}
	res, err := s.Sys.Query(StGetBestSellers, iv(maxOID-s.BestSellerWindow), sv(s.randSubject()))
	if err == nil && len(res) > 0 {
		s.lastItemID = res[s.Rng.Intn(len(res))][0].AsInt()
	}
	return err
}

func (s *Session) productDetail() error {
	item := s.lastItemID
	if item == 0 || s.Rng.Intn(2) == 0 {
		item = s.randItem()
	}
	rows, err := s.Sys.Query(StGetBook, iv(item))
	if err != nil {
		return err
	}
	if len(rows) == 1 {
		s.lastItemID = rows[0][0].AsInt()
	}
	return nil
}

// searchRequest serves the search form plus promotional items.
func (s *Session) searchRequest() error {
	_, err := s.Sys.Query(StGetRelated, iv(s.randItem()))
	return err
}

func (s *Session) searchResults() error {
	var rows []types.Row
	var err error
	switch s.Rng.Intn(3) {
	case 0:
		rows, err = s.Sys.Query(StDoSubjectSearch, sv(s.randSubject()))
	case 1:
		rows, err = s.Sys.Query(StDoTitleSearch, sv(fmt.Sprintf("Title %02d%%", s.Rng.Intn(100))))
	default:
		rows, err = s.Sys.Query(StDoAuthorSearch, sv(fmt.Sprintf("Lastname%02d%%", s.Rng.Intn(100))))
	}
	if err == nil && len(rows) > 0 {
		s.lastItemID = rows[s.Rng.Intn(len(rows))][0].AsInt()
	}
	return err
}

// shoppingCart creates or mutates the session's cart and displays it.
func (s *Session) shoppingCart() error {
	if s.cartID == 0 {
		s.cartID = s.IDs.cart.Add(1)
		if _, err := s.Sys.Exec(StCreateEmptyCart, iv(s.cartID), tv(time.Now())); err != nil {
			return err
		}
	}
	item := s.lastItemID
	if item == 0 {
		item = s.randItem()
	}
	// add or bump the line
	lines, err := s.Sys.Query(StGetCartLine, iv(s.cartID), iv(item))
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		if _, err := s.Sys.Exec(StAddLine, iv(s.cartID), iv(1), iv(item)); err != nil {
			return err
		}
	} else {
		qty := lines[0][0].AsInt() + 1
		if _, err := s.Sys.Exec(StUpdateLine, iv(qty), iv(s.cartID), iv(item)); err != nil {
			return err
		}
	}
	if _, err := s.Sys.Exec(StResetCartTime, tv(time.Now()), iv(s.cartID)); err != nil {
		return err
	}
	_, err = s.Sys.Query(StGetCart, iv(s.cartID))
	return err
}

func (s *Session) customerRegistration() error {
	// 80% returning customer, 20% new registration (reference behaviour)
	if s.Rng.Intn(5) > 0 {
		_, err := s.Sys.Query(StGetUserName, iv(s.customerID))
		return err
	}
	cid := s.IDs.customer.Add(1)
	addrID, err := s.enterAddress()
	if err != nil {
		return err
	}
	uname := fmt.Sprintf("newuser%07d", cid)
	now := time.Now()
	_, err = s.Sys.Exec(StCreateNewCustomer,
		iv(cid), sv(uname), sv(uname), sv("First"), sv("Last"), iv(addrID),
		sv("5551234567"), sv(uname+"@example.com"), tv(now), tv(now), tv(now),
		tv(now.Add(2*time.Hour)), fv(float64(s.Rng.Intn(51))/100), fv(0), fv(0),
		tv(now.AddDate(-30, 0, 0)), sv("new customer"))
	if err != nil {
		return err
	}
	s.customerID = cid
	return nil
}

func (s *Session) enterAddress() (int64, error) {
	rows, err := s.Sys.Query(StGetCountryID, sv("Switzerland"))
	if err != nil {
		return 0, err
	}
	coID := int64(1)
	if len(rows) > 0 {
		coID = rows[0][0].AsInt()
	}
	addrID := s.IDs.address.Add(1)
	_, err = s.Sys.Exec(StEnterAddress, iv(addrID), sv("1 Main St"), sv(""),
		sv("Zurich"), sv("ZH"), sv("8000"), iv(coID))
	return addrID, err
}

func (s *Session) buyRequest() error {
	if _, err := s.Sys.Query(StGetCustomer, sv(fmt.Sprintf("user%06d", s.customerID))); err != nil {
		return err
	}
	if s.cartID == 0 {
		if err := s.shoppingCart(); err != nil {
			return err
		}
	}
	if _, err := s.Sys.Query(StGetCart, iv(s.cartID)); err != nil {
		return err
	}
	_, err := s.Sys.Exec(StRefreshSession, tv(time.Now()), tv(time.Now().Add(2*time.Hour)), iv(s.customerID))
	return err
}

// buyConfirm is the write-heavy interaction: it turns the cart into an
// order inside one transaction (order header, one order line per cart line,
// stock updates, credit-card transaction, cart clearing).
//
// A snapshot-isolation conflict (another customer's purchase committing a
// stock update to the same item after this transaction's Begin) aborts the
// commit atomically; like a real TPC-W client the session retries the
// interaction a few times — the cart is untouched by an aborted commit and
// stock is re-read on each attempt. Note the conflict check only covers
// the Begin→commit window: the reference read-then-write behaviour (stock
// is read before the transaction opens) can still overwrite a competing
// update that committed before Begin, exactly as in TPC-W implementations
// on snapshot-isolation databases.
func (s *Session) buyConfirm() error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		err = s.buyConfirmOnce()
		if err == nil || !errors.Is(err, storage.ErrConflict) {
			return err
		}
	}
	return err
}

func (s *Session) buyConfirmOnce() error {
	if s.cartID == 0 {
		if err := s.shoppingCart(); err != nil {
			return err
		}
	}
	discRows, err := s.Sys.Query(StGetCDiscount, iv(s.customerID))
	if err != nil {
		return err
	}
	discount := 0.0
	if len(discRows) > 0 {
		discount = discRows[0][0].AsFloat()
	}
	cart, err := s.Sys.Query(StGetCart, iv(s.cartID))
	if err != nil {
		return err
	}
	if len(cart) == 0 {
		s.cartID = 0
		return nil // empty cart: nothing to buy
	}
	addrRows, err := s.Sys.Query(StGetCAddr, iv(s.customerID))
	if err != nil {
		return err
	}
	addrID := int64(1)
	if len(addrRows) > 0 {
		addrID = addrRows[0][0].AsInt()
	}

	subtotal := 0.0
	for _, line := range cart {
		subtotal += float64(line[1].AsInt()) * line[3].AsFloat()
	}
	subtotal *= 1 - discount
	tax := subtotal * 0.0825
	total := subtotal + tax + 3.0
	oid := s.IDs.order.Add(1)
	now := time.Now()

	// stock reads happen before the transaction (reference behaviour reads
	// then conditionally updates)
	type stockUpdate struct {
		item  int64
		stock int64
	}
	var stockUpdates []stockUpdate
	for _, line := range cart {
		itemID, qty := line[0].AsInt(), line[1].AsInt()
		st, err := s.Sys.Query(StGetStock, iv(itemID))
		if err != nil {
			return err
		}
		if len(st) == 0 {
			continue
		}
		newStock := st[0][0].AsInt() - qty
		if newStock < 10 {
			newStock += 21
		}
		stockUpdates = append(stockUpdates, stockUpdate{item: itemID, stock: newStock})
	}

	err = s.Sys.ExecTx(func(tx TxSink) error {
		if err := tx.Exec(StEnterOrder, iv(oid), iv(s.customerID), tv(now),
			fv(subtotal), fv(tax), fv(total), sv("UPS"), tv(now.AddDate(0, 0, 3)),
			iv(addrID), iv(addrID), sv("PENDING")); err != nil {
			return err
		}
		for _, line := range cart {
			olID := s.IDs.orderLine.Add(1)
			if err := tx.Exec(StAddOrderLine, iv(olID), iv(oid),
				iv(line[0].AsInt()), iv(line[1].AsInt()), fv(discount), sv("")); err != nil {
				return err
			}
		}
		for _, su := range stockUpdates {
			if err := tx.Exec(StSetStock, iv(su.stock), iv(su.item)); err != nil {
				return err
			}
		}
		if err := tx.Exec(StEnterCCXact, iv(oid), sv("VISA"),
			sv("1234567812345678"), sv("Cardholder"), tv(now.AddDate(2, 0, 0)),
			sv("AUTH-OK"), fv(total), tv(now), iv(1)); err != nil {
			return err
		}
		return tx.Exec(StClearCart, iv(s.cartID))
	})
	if err != nil {
		return err
	}
	s.cartID = 0
	return nil
}

func (s *Session) orderInquiry() error {
	_, err := s.Sys.Query(StGetPassword, sv(fmt.Sprintf("user%06d", s.customerID)))
	return err
}

// orderDisplay is the paper's "Order Display" interaction: the customer's
// most recent order with its lines (a 4-way join plus a join to items).
func (s *Session) orderDisplay() error {
	rows, err := s.Sys.Query(StGetMostRecentOrderID, iv(s.customerID))
	if err != nil {
		return err
	}
	if len(rows) == 0 || rows[0][0].IsNull() {
		return nil // customer has no orders
	}
	oid := rows[0][0].AsInt()
	if oid == 0 {
		return nil
	}
	if _, err := s.Sys.Query(StGetMostRecentOrder, iv(oid)); err != nil {
		return err
	}
	_, err = s.Sys.Query(StGetMostRecentOrderLines, iv(oid))
	return err
}

func (s *Session) adminRequest() error {
	_, err := s.Sys.Query(StGetBook, iv(s.randItem()))
	return err
}

// adminConfirm updates an item's price/image and recomputes its related
// item from the current best sellers of its subject (simplified from the
// reference's 5-way related computation).
func (s *Session) adminConfirm() error {
	item := s.randItem()
	rows, err := s.Sys.Query(StGetMaxOrderID)
	if err != nil {
		return err
	}
	maxOID := int64(0)
	if len(rows) > 0 {
		maxOID = rows[0][0].AsInt()
	}
	best, err := s.Sys.Query(StGetBestSellers, iv(maxOID-s.BestSellerWindow), sv(s.randSubject()))
	if err != nil {
		return err
	}
	related := s.randItem()
	if len(best) > 0 {
		related = best[0][0].AsInt()
	}
	now := time.Now()
	if _, err := s.Sys.Exec(StAdminUpdate, fv(float64(s.Rng.Intn(9999))/100+1),
		sv(fmt.Sprintf("img/image_%d.gif", item)), sv(fmt.Sprintf("img/thumb_%d.gif", item)),
		tv(now), iv(item)); err != nil {
		return err
	}
	_, err = s.Sys.Exec(StAdminUpdateRelated, iv(related), iv(item))
	return err
}
