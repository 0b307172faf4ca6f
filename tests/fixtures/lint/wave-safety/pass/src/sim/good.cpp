// A pure can_quiesce: it reads members and const helpers, keeps per-call
// state in locals or *scratch* staging, and never touches the member RNG.
// Member writes and RNG draws in other methods are outside the rule.
struct Rng {
  unsigned next() { return 1u; }
};

class GoodProtocol : public Protocol {
 public:
  void execute() {
    cursor_ = cursor_ + 1;
    (void)rng_.next();
  }
  bool can_quiesce() {
    scratch_votes_ = 0;
    int local = snapshot();
    local = local + 1;
    return local > cursor_;
  }

 private:
  int snapshot() const { return cursor_; }
  int cursor_ = 0;
  int scratch_votes_ = 0;
  Rng rng_;
};
