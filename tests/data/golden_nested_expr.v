module nested(
  input clk,
  input rst,
  input [7:0] a,
  input [3:0] b,
  input s,
  output [15:0] p_out,
  output [7:0] q_out,
  output [11:0] r_out,
  output [3:0] t_out
);
  reg [15:0] mix__p;
  reg [7:0] mix__q;
  reg [11:0] mix__r;
  reg [3:0] mix__t;
  wire [15:0] mix__p__c;
  wire [7:0] mix__q__c;
  wire [11:0] mix__r__c;
  wire [3:0] mix__t__c;
  wire [7:0] _e0 = 8'd5;
  wire [7:0] _e1 = a + _e0;
  wire [7:0] _e2 = {b, b};
  wire [7:0] _e3 = ~a;
  wire [7:0] _e4 = _e2 - _e3;
  assign mix__p__c = _e1 * _e4;
  always @(posedge clk) begin
    if (rst) mix__p <= 16'd0;
    else mix__p <= mix__p__c;
  end
  wire [7:0] _e5 = a << 2;
  wire [7:0] _e6 = a ^ _e5;
  wire _e7 = _e6[0:0];
  wire [7:0] _e8 = a >> 1;
  wire [7:0] _e9 = 8'd1;
  wire [7:0] _e10 = a | _e9;
  wire [7:0] _e11 = _e8 & _e10;
  wire [3:0] _e12 = a[3:0];
  wire [7:0] _e13 = {b, _e12};
  wire [7:0] _e14 = ~_e13;
  assign mix__q__c = _e7 ? _e11 : _e14;
  always @(posedge clk) begin
    if (rst) mix__q <= 8'd0;
    else mix__q <= mix__q__c;
  end
  wire [7:0] _e15 = b * b;
  wire [3:0] _e16 = _e15[3:0];
  wire [7:0] _e17 = 8'd255;
  wire [7:0] _e18 = a + _e17;
  wire [7:0] _e19 = a ^ b;
  wire [7:0] _e20 = b | a;
  wire [7:0] _e21 = a & _e20;
  wire [7:0] _e22 = _e19 - _e21;
  wire [7:0] _e23 = s ? _e18 : _e22;
  assign mix__r__c = {_e16, _e23};
  always @(posedge clk) begin
    if (rst) mix__r <= 12'd0;
    else mix__r <= mix__r__c;
  end
  wire [3:0] _e24 = 4'd9;
  wire [3:0] _e25 = b ^ _e24;
  wire [3:0] _e26 = ~_e25;
  wire [3:0] _e27 = _e26 >> 2;
  assign mix__t__c = _e27 << 1;
  always @(posedge clk) begin
    if (rst) mix__t <= 4'd0;
    else mix__t <= mix__t__c;
  end
  assign p_out = mix__p;
  assign q_out = mix__q;
  assign r_out = mix__r;
  assign t_out = mix__t;
endmodule
