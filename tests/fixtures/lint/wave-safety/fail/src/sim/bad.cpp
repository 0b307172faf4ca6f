// Every purity violation at once: a real member write, an in-place
// container mutation, a member-RNG draw, and a call to a non-const
// method of the same class.
struct Rng {
  unsigned next() { return 1u; }
};

class BadProtocol : public Protocol {
 public:
  bool can_quiesce() {
    cursor_ = cursor_ + 1;
    (void)rng_.next();
    advance();
    peers_.push_back(1);
    return true;
  }

 private:
  void advance() { cursor_ = 0; }
  int cursor_ = 0;
  Rng rng_;
  std::vector<int> peers_;
};
